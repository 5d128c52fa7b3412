// How the benchmark's in-process engines are built: the same files, hub
// order and thread count the server is started with.
#ifndef KOSR_SERVEBENCH_SPEC_H_
#define KOSR_SERVEBENCH_SPEC_H_

#include <string>
#include <vector>

#include "servebench/common.h"
#include "src/core/engine.h"

namespace servebench {

struct EngineSpec {
  std::string graph_path;
  std::string cats_path;
  uint32_t num_categories = 0;
  /// Grid dissection order when rows > 0, else the degree order.
  uint32_t rows = 0;
  uint32_t cols = 0;
  /// Index-build threads (0 = hardware concurrency), as `serve --threads`.
  uint32_t threads = 0;

  /// Reads --graph, --categories, --num-categories, --rows, --cols and
  /// --threads.
  static EngineSpec FromFlags(const Flags& flags);
  /// Builds `engine`'s indexes exactly as `kosr_cli serve` does.
  void BuildIndexes(kosr::KosrEngine& engine) const;
};

/// Applies one acknowledged update line (SET_EDGE / ADD_CAT / REMOVE_CAT) to
/// raw, unindexed inputs.
void ApplyUpdateLine(const std::string& line, kosr::Graph& graph,
                     kosr::CategoryTable& cats);

/// "c1,c2,..." as the protocol prints a result's costs ("-" for none).
std::string CostsText(const kosr::KosrResult& result);

}  // namespace servebench

#endif  // KOSR_SERVEBENCH_SPEC_H_
