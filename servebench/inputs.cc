// `servebench inputs`: writes a workload's graph and category files from its
// graph spec and seed, through the workload makers of bench/bench_common.h
// (the CAL-analog grid and the G+-analog small world). The server and the
// oracles receive only these files.
#include <cstdio>

#include "bench/bench_common.h"
#include "servebench/common.h"
#include "src/graph/io.h"

namespace servebench {

int CmdInputs(const Flags& flags) {
  const std::string kind = Required(flags, "kind");
  const std::string dir = Required(flags, "dir");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const auto category_size =
      static_cast<uint32_t>(flags.GetInt("category-size"));
  kosr::bench::Workload w;
  if (kind == "grid") {
    w = kosr::bench::MakeGridWorkload(
        kind, static_cast<uint32_t>(flags.GetInt("side")), category_size, seed,
        /*build_indexes=*/false);
  } else if (kind == "smallworld") {
    w = kosr::bench::MakeSmallWorldWorkload(
        kind, static_cast<uint32_t>(flags.GetInt("vertices")),
        Real(flags, "chords"), category_size, seed, /*build_indexes=*/false);
  } else {
    throw std::invalid_argument("unknown --kind " + kind);
  }
  const kosr::Graph& graph = w.engine->graph();
  const kosr::CategoryTable& cats = w.engine->categories();
  kosr::SaveDimacsGraph(graph, dir + "/graph.gr");
  kosr::SaveCategories(cats, dir + "/cats.txt");
  std::printf("%s\n", JsonObject()
                          .Num("vertices", graph.num_vertices())
                          .Num("arcs", static_cast<double>(graph.num_edges()))
                          .Num("categories", cats.num_categories())
                          .Text()
                          .c_str());
  return 0;
}

}  // namespace servebench
