// Unit tests for the observability primitives (ISSUE 7): the exact
// mergeable LogHistogram (bucket boundaries, merge associativity, and a
// percentile-error bound against a sorted oracle), the engine counter
// slots and their Diff semantics, the per-query stage span buffer, the
// slow-query trace serialization, and the minimal JSON reader that the
// metrics surfaces are validated against.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/graph.h"
#include "src/labeling/hub_labeling.h"
#include "src/obs/counters.h"
#include "src/obs/json_reader.h"
#include "src/obs/log_histogram.h"
#include "src/obs/trace.h"
#include "src/service/metrics.h"

namespace kosr::obs {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram: bucket geometry.

TEST(LogHistogramBucketsTest, ValuesBelowTwoSubBucketsAreExact) {
  // The first 2 * kSubBuckets values get unit-width buckets: recording is
  // lossless there, which covers every sub-microsecond span exactly.
  for (uint64_t ns : {uint64_t{0}, uint64_t{1}, uint64_t{100}, uint64_t{255}}) {
    size_t index = LogHistogram::BucketIndex(ns);
    EXPECT_EQ(index, static_cast<size_t>(ns));
    EXPECT_EQ(LogHistogram::BucketLowerBoundNs(index), ns);
    EXPECT_EQ(LogHistogram::BucketWidthNs(index), 1u);
  }
}

TEST(LogHistogramBucketsTest, FirstLogarithmicBucketStartsAt256) {
  // 255 is the last exact bucket; 256 opens the first width-2 group.
  EXPECT_EQ(LogHistogram::BucketIndex(255), 255u);
  EXPECT_EQ(LogHistogram::BucketIndex(256), 256u);
  EXPECT_EQ(LogHistogram::BucketLowerBoundNs(256), 256u);
  EXPECT_EQ(LogHistogram::BucketWidthNs(256), 2u);
  // 257 shares 256's bucket (width 2), 258 starts the next one.
  EXPECT_EQ(LogHistogram::BucketIndex(257), 256u);
  EXPECT_EQ(LogHistogram::BucketIndex(258), 257u);
}

TEST(LogHistogramBucketsTest, BucketsTileTheRangeWithoutGaps) {
  // Every bucket's lower bound must be the previous bucket's lower bound
  // plus its width — no gaps, no overlaps, across all 4608 buckets.
  for (size_t i = 1; i < LogHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(LogHistogram::BucketLowerBoundNs(i),
              LogHistogram::BucketLowerBoundNs(i - 1) +
                  LogHistogram::BucketWidthNs(i - 1))
        << "gap at bucket " << i;
  }
}

TEST(LogHistogramBucketsTest, IndexIsConsistentWithBoundsEverywhere) {
  // Sweep values across the full tracked range (all powers of two and
  // their neighbours): BucketIndex must land the value inside the bucket's
  // [lower, lower + width) range, and the width must respect the 1/128
  // relative granularity that yields the <=1/256 midpoint error.
  std::vector<uint64_t> probes;
  for (uint32_t bit = 0; bit <= 42; ++bit) {
    uint64_t p = 1ull << bit;
    for (int64_t delta : {-1, 0, 1}) {
      if (delta < 0 && p == 0) continue;
      uint64_t ns = p + static_cast<uint64_t>(delta);
      probes.push_back(std::min(ns, LogHistogram::kMaxTrackableNs));
    }
  }
  for (uint64_t ns : probes) {
    size_t index = LogHistogram::BucketIndex(ns);
    ASSERT_LT(index, LogHistogram::kNumBuckets);
    uint64_t lower = LogHistogram::BucketLowerBoundNs(index);
    uint64_t width = LogHistogram::BucketWidthNs(index);
    EXPECT_GE(ns, lower) << "ns=" << ns;
    EXPECT_LT(ns, lower + width) << "ns=" << ns;
    // Midpoint error bound: half a bucket width relative to the value.
    EXPECT_LE(static_cast<double>(width - 1) / 2.0,
              std::max(1.0, static_cast<double>(ns) / 256.0))
        << "ns=" << ns;
  }
}

TEST(LogHistogramBucketsTest, TopBucketAbsorbsTheWholeTail) {
  EXPECT_EQ(LogHistogram::BucketIndex(LogHistogram::kMaxTrackableNs),
            LogHistogram::kNumBuckets - 1);
  // Values past the trackable ceiling clamp instead of indexing out of
  // range (a 73-minute query is still "the slowest bucket", not UB).
  EXPECT_EQ(LogHistogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            LogHistogram::kNumBuckets - 1);
}

// ---------------------------------------------------------------------------
// LogHistogram: recording and summary statistics.

TEST(LogHistogramTest, EmptyHistogramReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.MeanSeconds(), 0.0);
  EXPECT_EQ(h.PercentileNs(50), 0u);
  EXPECT_EQ(h.PercentileNs(99), 0u);
}

TEST(LogHistogramTest, SingleValuePercentilesAreExact) {
  // The midpoint is clamped to [min, max], so a single sample reports
  // itself exactly at every percentile regardless of bucket width.
  LogHistogram h;
  h.RecordNs(123456789);
  for (double pct : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.PercentileNs(pct), 123456789u) << "pct=" << pct;
  }
  EXPECT_DOUBLE_EQ(h.MeanSeconds(), 123456789e-9);
}

TEST(LogHistogramTest, RecordSecondsClampsNegativesAndNan) {
  LogHistogram h;
  h.Record(-1.0);
  h.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.PercentileNs(100), 0u);
}

TEST(LogHistogramTest, ClearResetsEverything) {
  LogHistogram h;
  h.RecordNs(42);
  h.RecordNs(4200);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.MeanSeconds(), 0.0);
  EXPECT_EQ(h.PercentileNs(50), 0u);
}

TEST(LogHistogramTest, MergeMatchesDirectRecordingAndIsAssociative) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint64_t> dist(0, 1ull << 36);
  LogHistogram a, b, c, all;
  for (int i = 0; i < 500; ++i) {
    uint64_t va = dist(rng), vb = dist(rng), vc = dist(rng);
    a.RecordNs(va);
    b.RecordNs(vb);
    c.RecordNs(vc);
    all.RecordNs(va);
    all.RecordNs(vb);
    all.RecordNs(vc);
  }
  // (a + b) + c
  LogHistogram left = a;
  left.Merge(b);
  left.Merge(c);
  // a + (b + c)
  LogHistogram right_tail = b;
  right_tail.Merge(c);
  LogHistogram right = a;
  right.Merge(right_tail);
  for (const LogHistogram* merged : {&left, &right}) {
    EXPECT_EQ(merged->count(), all.count());
    EXPECT_DOUBLE_EQ(merged->MinSeconds(), all.MinSeconds());
    EXPECT_DOUBLE_EQ(merged->MaxSeconds(), all.MaxSeconds());
    EXPECT_DOUBLE_EQ(merged->MeanSeconds(), all.MeanSeconds());
    for (double pct : {50.0, 95.0, 99.0, 100.0}) {
      EXPECT_EQ(merged->PercentileNs(pct), all.PercentileNs(pct))
          << "pct=" << pct;
    }
  }
}

TEST(LogHistogramTest, MergingAnEmptyHistogramIsANoOp) {
  LogHistogram h, empty;
  h.RecordNs(1000);
  LogHistogram before = h;
  h.Merge(empty);
  EXPECT_EQ(h.count(), before.count());
  EXPECT_EQ(h.PercentileNs(50), before.PercentileNs(50));
  // And merging *into* an empty one adopts the other's extremes.
  LogHistogram fresh;
  fresh.Merge(h);
  EXPECT_EQ(fresh.count(), 1u);
  EXPECT_EQ(fresh.PercentileNs(100), 1000u);
}

TEST(LogHistogramTest, PercentilesTrackASortedOracleAcrossNineDecades) {
  // Log-uniform samples spanning 1ns..1s (10^0..10^9): each reported
  // percentile must sit within the bucket's relative-error bound of the
  // exact nearest-rank value from the sorted sample vector.
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> log_ns(0.0, 9.0);
  LogHistogram h;
  std::vector<uint64_t> oracle;
  constexpr size_t kSamples = 20000;
  oracle.reserve(kSamples);
  for (size_t i = 0; i < kSamples; ++i) {
    uint64_t ns = static_cast<uint64_t>(std::pow(10.0, log_ns(rng)));
    h.RecordNs(ns);
    oracle.push_back(ns);
  }
  std::sort(oracle.begin(), oracle.end());
  for (double pct : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(kSamples)));
    rank = std::clamp<uint64_t>(rank, 1, kSamples);
    uint64_t exact = oracle[rank - 1];
    uint64_t reported = h.PercentileNs(pct);
    // Reported value lies in the same bucket as the exact one, so the gap
    // is at most one bucket width: value/128 (+1 for integer rounding).
    double tolerance = static_cast<double>(exact) / 128.0 + 1.0;
    EXPECT_NEAR(static_cast<double>(reported), static_cast<double>(exact),
                tolerance)
        << "pct=" << pct;
  }
}

TEST(LogHistogramTest, SummaryJsonIsParseable) {
  LogHistogram h;
  h.Record(0.001);
  h.Record(0.020);
  h.Record(1.5);
  JsonValue v = ParseJson(h.SummaryJson());
  ASSERT_TRUE(v.IsObject());
  EXPECT_EQ(v.At("count").number, 3.0);
  EXPECT_GT(v.At("mean_ms").number, 0.0);
  EXPECT_GT(v.At("p50_ms").number, 0.0);
  EXPECT_GE(v.At("p99_ms").number, v.At("p50_ms").number);
  EXPECT_TRUE(v.At("p95_ms").IsNumber());
}

// ---------------------------------------------------------------------------
// Engine counters.

TEST(EngineCountersTest, AddAccumulatesAndMaxKeepsHighWater) {
  EngineCounters c;
  c.Add(Counter::kLabelQueries, 2);
  c.Add(Counter::kLabelQueries, 3);
  EXPECT_EQ(c.Get(Counter::kLabelQueries), 5u);
  c.Max(Counter::kScratchPeakWitnesses, 10);
  c.Max(Counter::kScratchPeakWitnesses, 4);  // lower: ignored
  EXPECT_EQ(c.Get(Counter::kScratchPeakWitnesses), 10u);
  c.Max(Counter::kScratchPeakWitnesses, 12);
  EXPECT_EQ(c.Get(Counter::kScratchPeakWitnesses), 12u);
}

TEST(EngineCountersTest, DiffSubtractsSumsAndPassesThroughMaxes) {
  EngineCounters before, after;
  before.Add(Counter::kMergeJoinCompares, 100);
  after.Add(Counter::kMergeJoinCompares, 175);
  before.Max(Counter::kScratchPeakWitnesses, 40);
  after.Max(Counter::kScratchPeakWitnesses, 40);  // unchanged high water
  EngineCounters delta = Diff(after, before);
  EXPECT_EQ(delta.Get(Counter::kMergeJoinCompares), 75u);
  // A high-water mark has no meaningful difference; the delta carries the
  // current value so registry max-merges stay correct.
  EXPECT_EQ(delta.Get(Counter::kScratchPeakWitnesses), 40u);
}

TEST(EngineCountersTest, CounterNamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (size_t i = 0; i < kNumCounters; ++i) {
    const char* name = CounterName(static_cast<Counter>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    // snake_case, JSON-key safe.
    for (char ch : std::string(name)) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_') << name;
    }
  }
  EXPECT_EQ(std::string(CounterName(Counter::kLabelQueries)),
            "label_queries");
  EXPECT_EQ(std::string(CounterName(Counter::kScratchPeakWitnesses)),
            "scratch_peak_witnesses");
}

TEST(EngineCountersTest, OnlyTheWitnessPeakIsAMaxCounter) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    Counter c = static_cast<Counter>(i);
    EXPECT_EQ(IsMaxCounter(c), c == Counter::kScratchPeakWitnesses);
  }
}

TEST(EngineCountersTest, CountMacroBumpsTheCallingThreadsSlots) {
  if (!Enabled()) GTEST_SKIP() << "KOSR_OBS_OFF=1 in the environment";
  EngineCounters before = TlsCounters();
  KOSR_COUNT(kGallopProbes, 7);
  KOSR_COUNT_MAX(kScratchPeakWitnesses,
                 before.Get(Counter::kScratchPeakWitnesses) + 5);
  EngineCounters delta = Diff(TlsCounters(), before);
  EXPECT_EQ(delta.Get(Counter::kGallopProbes), 7u);
  EXPECT_EQ(delta.Get(Counter::kScratchPeakWitnesses),
            before.Get(Counter::kScratchPeakWitnesses) + 5);
}

// The repair counters say why a repair cost what it did: how many (hub,
// direction) pairs its worklist examined, how many of those it re-searched,
// and how many re-searches reproduced the old entries exactly (wasted work).
// Graph 0 -> 2 -> 1 plus a direct 0 -> 1 that ties with the two-hop path;
// raising 2 -> 1 re-searches hub 0 forward (its tree through 2 -> 1 is
// tight, but vertex 1 keeps parent 0), hub 1 backward (Lout(2) moves from
// 1 to 5) and hub 2 forward (forced by that change to its own Lout, yet
// vertex 1 stays pruned), and examines hub 2 backward without re-searching
// it (the raised arc lies on no path to vertex 2).
TEST(EngineCountersTest, RepairCountersSplitExaminedResearchedAndUnchanged) {
  if (!Enabled()) GTEST_SKIP() << "KOSR_OBS_OFF=1 in the environment";
  Graph graph = Graph::FromEdges(3, {{0, 2, 1}, {2, 1, 1}, {0, 1, 2}});
  HubLabeling labels;
  labels.Build(graph, std::vector<VertexId>{0, 1, 2});
  graph.SetArcWeight(2, 1, 5);
  EngineCounters before = TlsCounters();
  LabelRepairDelta delta = labels.OnEdgeIncreased(graph, 2, 1, 1);
  EngineCounters counters = Diff(TlsCounters(), before);
  EXPECT_EQ(delta.changed_out, std::vector<VertexId>{2});
  EXPECT_EQ(counters.Get(Counter::kRepairTightnessTests), 4u);
  EXPECT_EQ(counters.Get(Counter::kRepairResearches), 3u);
  EXPECT_EQ(counters.Get(Counter::kRepairUnchangedResearches), 2u);
  EXPECT_EQ(std::string(CounterName(Counter::kRepairTightnessTests)),
            "repair_tightness_tests");
  EXPECT_EQ(std::string(CounterName(Counter::kRepairUnchangedResearches)),
            "repair_unchanged_researches");

  // An arc off every shortest path short-circuits: nothing is examined.
  Graph detour = Graph::FromEdges(3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 100}});
  labels.Build(detour, std::vector<VertexId>{0, 1, 2});
  detour.SetArcWeight(0, 2, 200);
  before = TlsCounters();
  EXPECT_TRUE(labels.OnEdgeIncreased(detour, 0, 2, 100).Empty());
  counters = Diff(TlsCounters(), before);
  EXPECT_EQ(counters.Get(Counter::kRepairTightnessTests), 0u);
  EXPECT_EQ(counters.Get(Counter::kRepairResearches), 0u);
}

// ---------------------------------------------------------------------------
// Stage spans and slow-query traces.

TEST(StageTimesTest, SlotsDefaultToUnrecorded) {
  StageTimes t;
  for (size_t i = 0; i < kNumStages; ++i) {
    EXPECT_FALSE(t.Recorded(static_cast<Stage>(i)));
  }
  t.Set(Stage::kQueueWait, 0.0);  // zero duration still counts as recorded
  EXPECT_TRUE(t.Recorded(Stage::kQueueWait));
  t.Clear();
  EXPECT_FALSE(t.Recorded(Stage::kQueueWait));
}

TEST(StageTimesTest, StageNamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (size_t i = 0; i < kNumStages; ++i) {
    const char* name = StageName(static_cast<Stage>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(std::string(StageName(Stage::kQueueWait)), "queue_wait");
  EXPECT_EQ(std::string(StageName(Stage::kSerialize)), "serialize");
}

TEST(SlowQueryEntryTest, ToJsonParsesAndOmitsUnrecordedStages) {
  SlowQueryEntry entry;
  entry.method = "SK";
  entry.source = 3;
  entry.target = 9;
  entry.k = 4;
  entry.sequence_length = 2;
  entry.latency_s = 0.25;
  entry.timed_out = true;
  entry.stages.Set(Stage::kQueueWait, 0.01);
  entry.stages.Set(Stage::kSerialize, 0.002);
  JsonValue v = ParseJson(entry.ToJson());
  ASSERT_TRUE(v.IsObject());
  EXPECT_EQ(v.At("method").string, "SK");
  EXPECT_EQ(v.At("source").number, 3.0);
  EXPECT_EQ(v.At("target").number, 9.0);
  EXPECT_EQ(v.At("k").number, 4.0);
  EXPECT_EQ(v.At("sequence_length").number, 2.0);
  EXPECT_NEAR(v.At("latency_ms").number, 250.0, 1e-6);
  EXPECT_TRUE(v.At("timed_out").bool_value);
  EXPECT_FALSE(v.At("cache_hit").bool_value);
  const JsonValue& stages = v.At("stages");
  ASSERT_TRUE(stages.IsObject());
  EXPECT_NEAR(stages.At("queue_wait_ms").number, 10.0, 1e-6);
  EXPECT_NEAR(stages.At("serialize_ms").number, 2.0, 1e-6);
  // Unsampled engine stages stay out of the trace entirely.
  EXPECT_EQ(stages.Find("nn_ms"), nullptr);
  EXPECT_EQ(stages.Find("enumerate_ms"), nullptr);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot::ToJson round-trips through the reader.

TEST(MetricsSnapshotTest, ToJsonIsParseableAndComplete) {
  service::MetricsSnapshot snap;
  snap.uptime_s = 12.5;
  snap.submitted = 10;
  snap.completed = 8;
  snap.rejected = 1;
  snap.errors = 1;
  snap.qps = 8 / 12.5;
  snap.queue_depth = 3;
  snap.in_flight = 2;
  snap.per_method["SK"].Record(0.004);
  snap.per_method["PK-Dij"].Record(0.1);
  snap.stages[static_cast<size_t>(Stage::kQueueWait)].Record(0.001);
  for (size_t i = 0; i < kNumCounters; ++i) snap.counters[i] = 10 * (i + 1);
  SlowQueryEntry slow;
  slow.method = "SK";
  slow.latency_s = 1.0;
  slow.stages.Set(Stage::kQueueWait, 0.9);
  snap.slow_queries.push_back(slow);

  JsonValue v = ParseJson(snap.ToJson());
  ASSERT_TRUE(v.IsObject());
  EXPECT_EQ(v.At("submitted").number, 10.0);
  EXPECT_EQ(v.At("completed").number, 8.0);
  EXPECT_EQ(v.At("gauges").At("queue_depth").number, 3.0);
  EXPECT_EQ(v.At("gauges").At("in_flight").number, 2.0);
  EXPECT_TRUE(v.At("cache").At("hit_rate").IsNumber());
  EXPECT_EQ(v.At("methods").At("SK").At("count").number, 1.0);
  EXPECT_EQ(v.At("methods").At("PK-Dij").At("count").number, 1.0);
  // Every stage and every counter appears under its stable name.
  const JsonValue& stages = v.At("stages");
  for (size_t i = 0; i < kNumStages; ++i) {
    EXPECT_NE(stages.Find(StageName(static_cast<Stage>(i))), nullptr);
  }
  const JsonValue& counters = v.At("counters");
  for (size_t i = 0; i < kNumCounters; ++i) {
    EXPECT_EQ(counters.At(CounterName(static_cast<Counter>(i))).number,
              10.0 * (i + 1));
  }
  const JsonValue& slow_queries = v.At("slow_queries");
  ASSERT_TRUE(slow_queries.IsArray());
  ASSERT_EQ(slow_queries.items.size(), 1u);
  EXPECT_EQ(slow_queries.items[0].At("method").string, "SK");
}

// ---------------------------------------------------------------------------
// JSON reader.

TEST(JsonReaderTest, ParsesScalarsAndContainers) {
  JsonValue v = ParseJson(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\ty", "neg": -2e3})");
  ASSERT_TRUE(v.IsObject());
  EXPECT_DOUBLE_EQ(v.At("a").number, 1.5);
  const JsonValue& b = v.At("b");
  ASSERT_TRUE(b.IsArray());
  ASSERT_EQ(b.items.size(), 3u);
  EXPECT_TRUE(b.items[0].bool_value);
  EXPECT_FALSE(b.items[1].bool_value);
  EXPECT_EQ(b.items[2].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.At("s").string, "x\ty");
  EXPECT_DOUBLE_EQ(v.At("neg").number, -2000.0);
}

TEST(JsonReaderTest, KeepsObjectKeysInDocumentOrder) {
  JsonValue v = ParseJson(R"({"z": 1, "a": 2})");
  ASSERT_EQ(v.members.size(), 2u);
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
}

TEST(JsonReaderTest, DecodesEscapesIncludingUnicode) {
  JsonValue v = ParseJson(R"("quote:\" slash:\\ u:\u0041 wide:\u20ac")");
  EXPECT_EQ(v.string, "quote:\" slash:\\ u:A wide:?");
}

TEST(JsonReaderTest, FindAndAtBehaveOnMissingKeys) {
  JsonValue v = ParseJson(R"({"present": 1})");
  EXPECT_NE(v.Find("present"), nullptr);
  EXPECT_EQ(v.Find("absent"), nullptr);
  EXPECT_THROW(v.At("absent"), std::runtime_error);
  // Find on a non-object is a nullptr, not a crash.
  EXPECT_EQ(v.At("present").Find("anything"), nullptr);
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1,}", "[1 2]", "\"bad\\u12zz\"",
        "nan", "--1"}) {
    EXPECT_THROW(ParseJson(bad), std::runtime_error) << "input: " << bad;
  }
}

}  // namespace
}  // namespace kosr::obs
