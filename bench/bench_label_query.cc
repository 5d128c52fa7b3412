// Raw 2-hop distance-query throughput over the hub labeling's sealed flat
// SoA store. This is the microbench behind BENCH_flat_labels.json (whose
// `/nested` cells recorded the nested-vector store the flat one replaced;
// the cell names keep the `/flat` suffix so later runs line up with it) —
// the KOSR algorithms issue thousands of these probes per query, so
// ns-per-probe here is the system's hot-path budget.
//
// Two pair distributions per graph:
//   random — uniform (s, t): long label runs, few shared hubs, the
//            merge-join is dominated by skipping.
//   local  — t drawn from a small Dijkstra ball around s: the common case
//            inside FindNN/FindNEN frontiers, many shared hubs.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/min_heap.h"

namespace kosr::bench {
namespace {

struct PairSet {
  std::string name;
  std::vector<std::pair<VertexId, VertexId>> pairs;
};

std::vector<std::pair<VertexId, VertexId>> RandomPairs(const Graph& graph,
                                                       uint32_t count,
                                                       uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> pick(0, graph.num_vertices() - 1);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) pairs.emplace_back(pick(rng), pick(rng));
  return pairs;
}

// Pairs (s, t) with t among the `ball` nearest vertices of s.
std::vector<std::pair<VertexId, VertexId>> LocalPairs(const Graph& graph,
                                                      uint32_t count,
                                                      uint32_t ball,
                                                      uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> pick(0, graph.num_vertices() - 1);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(count);
  IndexedMinHeap heap(graph.num_vertices());
  std::vector<VertexId> settled;
  while (pairs.size() < count) {
    VertexId s = pick(rng);
    settled.clear();
    heap.Clear();
    heap.InsertOrDecrease(s, 0);
    // Truncated Dijkstra: settle up to `ball` vertices around s. Revisits
    // are fine for workload construction — the heap dedups live entries and
    // a settled vertex re-inserted later only pads the ball slightly.
    while (!heap.Empty() && settled.size() < ball) {
      auto [d, x] = heap.ExtractMin();
      settled.push_back(x);
      for (const Arc& a : graph.OutArcs(x)) {
        heap.InsertOrDecrease(a.head, d + a.weight);
      }
    }
    if (settled.size() < 2) continue;
    std::uniform_int_distribution<size_t> in_ball(1, settled.size() - 1);
    pairs.emplace_back(s, settled[in_ball(rng)]);
  }
  return pairs;
}

// One workload per paper-graph family: FLA-analog grid + G+ small world.
std::vector<Workload>& Workloads() {
  static std::vector<Workload> w = [] {
    std::vector<Workload> v;
    v.push_back(MakeGridWorkload("FLA", 160, 256, 104));
    v.push_back(MakeSmallWorldWorkload("G+", 3000, 6.0, 48, 105));
    return v;
  }();
  return w;
}

constexpr uint32_t kPairs = 4096;

const PairSet& Pairs(const Workload& w, bool local) {
  static std::vector<std::pair<std::string, PairSet>> cache;
  std::string key = w.name + (local ? "/local" : "/random");
  for (const auto& [k, set] : cache) {
    if (k == key) return set;
  }
  PairSet set;
  set.name = key;
  set.pairs = local ? LocalPairs(w.engine->graph(), kPairs, 64, w.seed + 11)
                    : RandomPairs(w.engine->graph(), kPairs, w.seed + 12);
  cache.emplace_back(key, std::move(set));
  return cache.back().second;
}

void BM_QueryFlat(benchmark::State& state, const Workload* w, bool local) {
  const HubLabeling& hl = w->engine->labeling();
  const auto& pairs = Pairs(*w, local).pairs;
  for (auto _ : state) {
    Cost sum = 0;
    for (const auto& [s, t] : pairs) sum += hl.Query(s, t);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          pairs.size());
}

}  // namespace
}  // namespace kosr::bench

int main(int argc, char** argv) {
  kosr::bench::PrintMachineMeta("label_query");
  benchmark::Initialize(&argc, argv);
  for (const auto& w : kosr::bench::Workloads()) {
    for (bool local : {false, true}) {
      const char* dist = local ? "local" : "random";
      benchmark::RegisterBenchmark(
          ("label_query/" + w.name + "/" + dist + "/flat").c_str(),
          kosr::bench::BM_QueryFlat, &w, local);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
