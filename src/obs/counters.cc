#include "src/obs/counters.h"

#include <cstdlib>
#include <cstring>

namespace kosr::obs {

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kLabelQueries:
      return "label_queries";
    case Counter::kLabelEntriesScanned:
      return "label_entries_scanned";
    case Counter::kMergeJoinCompares:
      return "merge_join_compares";
    case Counter::kGallopProbes:
      return "gallop_probes";
    case Counter::kNnCursorPops:
      return "nn_cursor_pops";
    case Counter::kPrunedRelaxations:
      return "pruned_relaxations";
    case Counter::kRepairTightnessTests:
      return "repair_tightness_tests";
    case Counter::kRepairResearches:
      return "repair_researches";
    case Counter::kRepairUnchangedResearches:
      return "repair_unchanged_researches";
    case Counter::kScratchPeakWitnesses:
      return "scratch_peak_witnesses";
  }
  return "?";
}

namespace internal {
namespace {
bool ReadEnabledFromEnv() {
  const char* v = std::getenv("KOSR_OBS_OFF");
  // Any non-empty value other than "0" disables instrumentation.
  return v == nullptr || v[0] == '\0' || std::strcmp(v, "0") == 0;
}
}  // namespace

const bool g_enabled = ReadEnabledFromEnv();
}  // namespace internal

EngineCounters Diff(const EngineCounters& after, const EngineCounters& before) {
  EngineCounters delta;
  for (size_t i = 0; i < kNumCounters; ++i) {
    delta.slots[i] = IsMaxCounter(static_cast<Counter>(i))
                         ? after.slots[i]
                         : after.slots[i] - before.slots[i];
  }
  return delta;
}

}  // namespace kosr::obs
