// Shared pieces of the servebench tool: flag access, the plan file format,
// the clock, percentiles and a small JSON writer.
#ifndef KOSR_SERVEBENCH_COMMON_H_
#define KOSR_SERVEBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cli/cli.h"

namespace servebench {

/// The subcommand and its `--name value` flags, parsed by the CLI's own
/// parser.
using Flags = kosr::cli::Args;

/// A flag that must be present.
inline std::string Required(const Flags& flags, const std::string& key) {
  auto value = flags.Get(key);
  if (!value) throw std::invalid_argument("missing --" + key);
  return *value;
}

/// A required flag parsed as a real number.
inline double Real(const Flags& flags, const std::string& key) {
  return std::stod(Required(flags, key));
}

inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// One operation of a plan. Kinds: 'Q' query (idx = query-pool index),
/// 'U' update, 'C' checkpoint, 'P' ping. `due_us` is the send time relative
/// to the start of the plan.
struct PlanOp {
  int64_t due_us = 0;
  int conn = 0;
  char kind = 'Q';
  int64_t idx = -1;
  std::string line;
};

struct Plan {
  int conns = 1;
  std::vector<PlanOp> ops;
};

/// Reads a plan file: a "# conns=N" header, then one
/// "<due_us> <conn> <kind> <idx> <request line>" per operation, sorted by
/// due time.
Plan ReadPlan(const std::string& path);

/// Reads a file's lines (the query pool: one QUERY line per pool index; the
/// acknowledged updates: one update line each).
std::vector<std::string> ReadLines(const std::string& path);

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
inline double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Minimal JSON object writer for the tool's summaries.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    Key(key);
    if (std::isfinite(value)) {
      std::ostringstream os;
      os.precision(10);
      os << value;
      body_ += os.str();
    } else {
      body_ += "null";
    }
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    Key(key);
    body_ += "\"" + value + "\"";
    return *this;
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    Key(key);
    body_ += json;
    return *this;
  }
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":";
  }
  std::string body_;
};

// Subcommands (one per source file).
int CmdInputs(const Flags& flags);
int CmdLoad(const Flags& flags);
int CmdStub(const Flags& flags);
int CmdCheck(const Flags& flags);
int CmdTrace(const Flags& flags);

}  // namespace servebench

#endif  // KOSR_SERVEBENCH_COMMON_H_
