// `servebench check`: the answer oracle. Builds an in-process KosrEngine from
// the workload's files -- after applying exactly the acknowledged updates,
// when given -- and compares every observed response's costs with
// KosrEngine::Query. Runs after the generator's timed windows.
#include <atomic>
#include <cstdio>
#include <mutex>
#include <fstream>
#include <sstream>
#include <thread>

#include "servebench/spec.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/service/protocol.h"

namespace servebench {

EngineSpec EngineSpec::FromFlags(const Flags& flags) {
  EngineSpec spec;
  spec.graph_path = Required(flags, "graph");
  spec.cats_path = Required(flags, "categories");
  spec.num_categories = static_cast<uint32_t>(flags.GetInt("num-categories"));
  spec.rows = static_cast<uint32_t>(flags.GetIntOr("rows", 0));
  spec.cols = static_cast<uint32_t>(flags.GetIntOr("cols", 0));
  spec.threads = static_cast<uint32_t>(flags.GetIntOr("threads", 0));
  return spec;
}

void EngineSpec::BuildIndexes(kosr::KosrEngine& engine) const {
  if (rows > 0) {
    engine.BuildIndexes(kosr::GridDissectionOrder(rows, cols), threads);
  } else {
    engine.BuildIndexes(threads);
  }
}

void ApplyUpdateLine(const std::string& line, kosr::Graph& graph,
                     kosr::CategoryTable& cats) {
  std::istringstream ls(line);
  std::string verb;
  uint32_t a = 0, b = 0, w = 0;
  ls >> verb >> a >> b;
  if (verb == "SET_EDGE" && (ls >> w)) {
    graph.SetArcWeight(a, b, w);
  } else if (verb == "ADD_CAT") {
    cats.Add(a, b);
  } else if (verb == "REMOVE_CAT") {
    cats.Remove(a, b);
  } else {
    throw std::runtime_error("unsupported update line: " + line);
  }
}

std::string CostsText(const kosr::KosrResult& result) {
  if (result.routes.empty()) return "-";
  std::string text;
  for (const kosr::SequencedRoute& route : result.routes) {
    if (!text.empty()) text += ",";
    text += std::to_string(route.cost);
  }
  return text;
}

int CmdCheck(const Flags& flags) {
  const EngineSpec spec = EngineSpec::FromFlags(flags);
  kosr::Graph graph = kosr::LoadDimacsGraph(spec.graph_path);
  kosr::CategoryTable cats = kosr::LoadCategories(
      spec.cats_path, graph.num_vertices(), spec.num_categories);
  uint64_t applied = 0;
  if (auto acked = flags.GetOr("acked", ""); !acked.empty()) {
    for (const std::string& line : ReadLines(acked)) {
      ApplyUpdateLine(line, graph, cats);
      ++applied;
    }
  }
  kosr::KosrEngine engine(std::move(graph), std::move(cats));
  spec.BuildIndexes(engine);

  const std::vector<std::string> pool = ReadLines(Required(flags, "pool"));
  std::vector<std::pair<size_t, std::string>> observed;
  {
    std::ifstream in(Required(flags, "observed"));
    size_t idx;
    std::string costs;
    while (in >> idx >> costs) {
      if (idx >= pool.size()) throw std::runtime_error("observed idx out of pool");
      observed.emplace_back(idx, costs);
    }
  }
  std::atomic<size_t> next{0}, mismatches{0};
  std::string first_mismatch;
  std::mutex first_mutex;
  auto worker = [&] {
    kosr::QueryContext ctx;
    for (size_t i; (i = next.fetch_add(1)) < observed.size();) {
      kosr::service::ServiceRequest request;
      std::string error;
      const std::string& line = pool[observed[i].first];
      std::string expected = "unparsable";
      if (kosr::service::ParseQueryLine(line, &request, &error)) {
        expected = CostsText(engine.Query(request.query, request.options, &ctx));
      }
      if (expected != observed[i].second) {
        ++mismatches;
        std::lock_guard<std::mutex> lock(first_mutex);
        if (first_mismatch.empty()) {
          first_mismatch = line + " => " + observed[i].second +
                           " (oracle " + expected + ")";
        }
      }
    }
  };
  const uint32_t n_threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < n_threads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  std::printf("%s\n", JsonObject()
                          .Num("checked", static_cast<double>(observed.size()))
                          .Num("updates_applied", static_cast<double>(applied))
                          .Num("mismatches", static_cast<double>(mismatches))
                          .Str("first_mismatch", first_mismatch)
                          .Text()
                          .c_str());
  return 0;
}

}  // namespace servebench
