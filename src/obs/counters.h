#ifndef KOSR_OBS_COUNTERS_H_
#define KOSR_OBS_COUNTERS_H_

#include <cstddef>
#include <cstdint>

namespace kosr::obs {

/// Engine work counters (ISSUE 7): what the query/repair machinery actually
/// did, as opposed to how long it took. Each enumerator is one slot in
/// EngineCounters; CounterName() gives the stable JSON key. The catalogue
/// lives in DESIGN.md ("Observability").
enum class Counter : uint32_t {
  kLabelQueries = 0,       ///< HubLabeling::Query / QueryWithHub calls.
  kLabelEntriesScanned,    ///< Packed label entries advanced by merge-joins.
  kMergeJoinCompares,      ///< Merge-join loop iterations (key comparisons).
  kGallopProbes,           ///< lower_bound probes on the galloping path.
  kNnCursorPops,           ///< FindNN/FindNEN frontier heap pops.
  kPrunedRelaxations,      ///< Arc relaxations inside pruned searches.
  kRepairTightnessTests,   ///< (hub, direction) pairs a repair examined.
  kRepairResearches,       ///< Pruned searches a repair re-ran.
  kRepairUnchangedResearches,  ///< Re-searches whose entries came out as before.
  kScratchPeakWitnesses,   ///< High-water witness-pool size (max, not sum).
};
inline constexpr size_t kNumCounters = 10;

/// Stable snake_case name for the JSON/METRICS surface.
const char* CounterName(Counter c);

/// Counters aggregated by max instead of sum (arena high-water marks).
constexpr bool IsMaxCounter(Counter c) {
  return c == Counter::kScratchPeakWitnesses;
}

/// Plain per-thread counter slots. The hot path bumps these with ordinary
/// (non-atomic) adds — each thread owns its own instance (see TlsCounters),
/// so there is no sharing to synchronize and no cache-line ping-pong.
/// Aggregation into the shared MetricsRegistry happens once per completed
/// request (service workers) or per bench phase, via Diff().
struct EngineCounters {
  uint64_t slots[kNumCounters] = {};

  void Add(Counter c, uint64_t n) { slots[static_cast<size_t>(c)] += n; }
  void Max(Counter c, uint64_t v) {
    uint64_t& slot = slots[static_cast<size_t>(c)];
    if (v > slot) slot = v;
  }
  uint64_t Get(Counter c) const { return slots[static_cast<size_t>(c)]; }
};

namespace internal {
/// Initialized once (before main) from the KOSR_OBS_OFF environment knob;
/// read-only afterwards, so unsynchronized reads from every thread are safe.
extern const bool g_enabled;
/// One slot array per thread; zero-initialized, so thread-local access has
/// no construction guard.
inline thread_local EngineCounters tls_counters;
}  // namespace internal

/// False when the process started with KOSR_OBS_OFF=1 (the overhead smoke's
/// baseline mode): counter flushes and stage recording are skipped.
inline bool Enabled() { return internal::g_enabled; }

/// The calling thread's counter slots.
inline EngineCounters& TlsCounters() { return internal::tls_counters; }

/// Per-interval delta between two snapshots of the *same thread's* slots:
/// subtraction for sum counters, the current running value for max counters
/// (a high-water mark has no meaningful difference).
EngineCounters Diff(const EngineCounters& after, const EngineCounters& before);

}  // namespace kosr::obs

/// Hot-path counter bump: one thread-local add behind a single predictable
/// branch — no locks, no atomics, no allocation (hotpath_lint covers the
/// instrumented functions). Callers accumulate loop-local counts into a
/// register and flush once per call, so the macro does not sit inside the
/// innermost loops.
#define KOSR_COUNT(counter, n)                                       \
  do {                                                               \
    if (::kosr::obs::Enabled()) {                                    \
      ::kosr::obs::TlsCounters().Add(::kosr::obs::Counter::counter,  \
                                     static_cast<uint64_t>(n));      \
    }                                                                \
  } while (0)

/// Max-merge variant for high-water counters.
#define KOSR_COUNT_MAX(counter, v)                                   \
  do {                                                               \
    if (::kosr::obs::Enabled()) {                                    \
      ::kosr::obs::TlsCounters().Max(::kosr::obs::Counter::counter,  \
                                     static_cast<uint64_t>(v));      \
    }                                                                \
  } while (0)

#endif  // KOSR_OBS_COUNTERS_H_
