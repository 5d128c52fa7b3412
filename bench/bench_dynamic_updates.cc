// Dynamic-update repair benchmark (ISSUE 5): measures the per-update
// latency of the canonical incremental label repair — weight decreases,
// weight increases, and edge deletions/re-insertions, at small and large
// magnitudes — against the only alternative a pre-ISSUE-5 engine had for
// increases and deletions: a full index rebuild. Updates run through the
// engine entry points (SetEdgeWeight / RemoveEdge / AddOrDecreaseEdge), so
// the timings include the incremental inverted-index patching and the
// flat-store re-seals, exactly what a serving process pays per update.
//
// Standalone binary (no google-benchmark dependency): each update is one
// timed event, not an iterated steady-state measurement — repairing the
// same arc twice is a no-op, so updates cannot be re-run for averaging.
//
// Emits a JSON report (stdout) with the standard machine_meta block, the
// full-rebuild baseline, and per-scenario mean/p50/p95/p99 repair times,
// average repaired-label counts, the fraction of updates whose repair was
// certified empty, and the speedup over a rebuild.
//
// Flags (all optional):
//   --side N      grid side length        (default 48, scaled by
//                 KOSR_BENCH_SCALE like every other bench)
//   --updates N   updates per scenario    (default 60 * KOSR_BENCH_SCALE)
//   --seed X      workload + pick seed    (default 9)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/counters.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace kosr::bench {
namespace {

struct Options {
  uint32_t side = 48;
  uint32_t updates = 0;
  uint64_t seed = 9;
};

Options ParseOptions(int argc, char** argv) {
  Options opt;
  opt.updates = std::max(10u, static_cast<uint32_t>(60 * WorkloadScale()));
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    long long value = std::atoll(argv[i + 1]);
    if (value <= 0) {
      std::fprintf(stderr, "%s wants a positive integer\n", flag.c_str());
      std::exit(1);
    }
    if (flag == "--side") {
      opt.side = static_cast<uint32_t>(value);
    } else if (flag == "--updates") {
      opt.updates = static_cast<uint32_t>(value);
    } else if (flag == "--seed") {
      opt.seed = static_cast<uint64_t>(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(1);
    }
  }
  return opt;
}

struct ScenarioResult {
  std::string name;
  LatencyHistogram latency;
  uint64_t label_vectors_changed = 0;
  uint32_t empty_repairs = 0;  ///< Updates whose repair was certified empty.
  uint32_t applied = 0;
  /// Engine counter delta across the scenario (worklist pairs examined,
  /// re-searches, unchanged re-searches, relaxations) — the work behind
  /// the latencies.
  obs::EngineCounters counters;
};

ScenarioResult RunScenario(KosrEngine& engine, const char* name,
                           uint32_t updates, std::mt19937_64& rng,
                           const std::function<EdgeUpdateSummary(
                               KosrEngine&, VertexId, VertexId, Weight)>& op) {
  ScenarioResult result;
  result.name = name;
  const obs::EngineCounters before = obs::TlsCounters();
  // One edge-list materialization per scenario; picks are consumed (and
  // entries the scenario itself staled are discarded on contact), so each
  // scenario updates distinct arcs and the pool drains instead of looping.
  auto pool = engine.graph().ToEdges();
  while (result.applied < updates) {
    if (pool.empty()) {
      std::fprintf(stderr,
                   "%s: ran out of distinct arcs after %u updates (asked "
                   "%u)\n",
                   name, result.applied, updates);
      break;
    }
    size_t pick = rng() % pool.size();
    auto [u, v, w] = pool[pick];
    pool[pick] = pool.back();
    pool.pop_back();
    // Skip entries no longer at their effective minimum weight (heavier
    // parallels, or arcs an earlier update of this scenario changed).
    if (static_cast<Cost>(w) != engine.graph().ArcWeight(u, v)) continue;
    WallTimer timer;
    EdgeUpdateSummary summary = op(engine, u, v, w);
    result.latency.Record(timer.ElapsedSeconds());
    result.label_vectors_changed +=
        summary.changed_in_labels + summary.changed_out_labels;
    if (!summary.labels_changed) ++result.empty_repairs;
    ++result.applied;
  }
  result.counters = obs::Diff(obs::TlsCounters(), before);
  return result;
}

int Run(int argc, char** argv) {
  Options opt = ParseOptions(argc, argv);
  Workload workload = MakeGridWorkload("GRID", opt.side, 32, opt.seed);
  KosrEngine& engine = *workload.engine;
  const double rebuild_s =
      engine.label_build_seconds() + engine.inverted_build_seconds();

  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ull);
  std::vector<ScenarioResult> results;

  // Decreases: shave 10% (small) and 75% (large) off an existing arc.
  results.push_back(RunScenario(
      engine, "decrease_small", opt.updates, rng,
      [](KosrEngine& e, VertexId u, VertexId v, Weight w) {
        return e.AddOrDecreaseEdge(u, v, std::max<Weight>(1, w - w / 10 - 1));
      }));
  results.push_back(RunScenario(
      engine, "decrease_large", opt.updates, rng,
      [](KosrEngine& e, VertexId u, VertexId v, Weight w) {
        return e.AddOrDecreaseEdge(u, v, std::max<Weight>(1, w / 4));
      }));
  // Increases: +10% (small) and x4 (large).
  results.push_back(RunScenario(
      engine, "increase_small", opt.updates, rng,
      [](KosrEngine& e, VertexId u, VertexId v, Weight w) {
        return e.SetEdgeWeight(u, v, w + w / 10 + 1);
      }));
  results.push_back(RunScenario(
      engine, "increase_large", opt.updates, rng,
      [](KosrEngine& e, VertexId u, VertexId v, Weight w) {
        return e.SetEdgeWeight(u, v, w * 4);
      }));
  // Deletions, then re-insertions of the deleted arcs at their old weight
  // (the insert path of the decrease repair).
  std::vector<std::tuple<VertexId, VertexId, Weight>> removed;
  results.push_back(RunScenario(
      engine, "remove", opt.updates, rng,
      [&removed](KosrEngine& e, VertexId u, VertexId v, Weight w) {
        removed.emplace_back(u, v, w);
        return e.RemoveEdge(u, v);
      }));
  {
    ScenarioResult reinsert;
    reinsert.name = "reinsert";
    const obs::EngineCounters before = obs::TlsCounters();
    for (auto [u, v, w] : removed) {
      WallTimer timer;
      EdgeUpdateSummary summary = engine.AddOrDecreaseEdge(u, v, w);
      reinsert.latency.Record(timer.ElapsedSeconds());
      reinsert.label_vectors_changed +=
          summary.changed_in_labels + summary.changed_out_labels;
      if (!summary.labels_changed) ++reinsert.empty_repairs;
      ++reinsert.applied;
    }
    reinsert.counters = obs::Diff(obs::TlsCounters(), before);
    results.push_back(std::move(reinsert));
  }

  std::printf("{\n  \"meta\": %s,\n", MachineMetaJson("dynamic_updates").c_str());
  std::printf("  \"graph\": {\"vertices\": %u, \"arcs\": %llu},\n",
              engine.graph().num_vertices(),
              static_cast<unsigned long long>(engine.graph().num_edges()));
  std::printf("  \"full_rebuild_ms\": %.3f,\n", rebuild_s * 1e3);
  std::printf("  \"scenarios\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    double mean_ms = r.latency.MeanSeconds() * 1e3;
    std::printf(
        "    {\"update\": \"%s\", \"updates\": %u, \"mean_ms\": %.4f, "
        "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"avg_label_vectors_repaired\": %.2f, \"empty_repair_fraction\": "
        "%.3f, \"speedup_vs_rebuild\": %.1f, "
        "\"repair_tightness_tests\": %llu, \"repair_researches\": %llu, "
        "\"repair_unchanged_researches\": %llu, "
        "\"pruned_relaxations\": %llu}%s\n",
        r.name.c_str(), r.applied, mean_ms, r.latency.P50Millis(),
        r.latency.P95Millis(), r.latency.P99Millis(),
        r.applied == 0
            ? 0.0
            : static_cast<double>(r.label_vectors_changed) / r.applied,
        r.applied == 0 ? 0.0
                       : static_cast<double>(r.empty_repairs) / r.applied,
        mean_ms == 0 ? 0.0 : rebuild_s * 1e3 / mean_ms,
        static_cast<unsigned long long>(
            r.counters.Get(obs::Counter::kRepairTightnessTests)),
        static_cast<unsigned long long>(
            r.counters.Get(obs::Counter::kRepairResearches)),
        static_cast<unsigned long long>(
            r.counters.Get(obs::Counter::kRepairUnchangedResearches)),
        static_cast<unsigned long long>(
            r.counters.Get(obs::Counter::kPrunedRelaxations)),
        i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace kosr::bench

int main(int argc, char** argv) { return kosr::bench::Run(argc, argv); }
