#include "src/service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "src/obs/counters.h"
#include "src/obs/json_reader.h"
#include "src/service/protocol.h"
#include "tests/test_util.h"

namespace kosr::service {
namespace {

/// Line graph 0 - 1 - 2 - 3 (unit weights, both directions), category 0 =
/// {3}, category 1 = {2}. Every optimal route is computable by hand, which
/// makes the stale-cache regressions deterministic.
KosrEngine MakeLineEngine() {
  Graph graph = Graph::FromEdges(
      4, {{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}, {2, 3, 1}, {3, 2, 1}});
  CategoryTable categories(4, 3);
  categories.Add(3, 0);
  categories.Add(2, 1);
  KosrEngine engine(std::move(graph), std::move(categories));
  engine.BuildIndexes();
  return engine;
}

ServiceRequest MakeRequest(VertexId source, VertexId target,
                           CategorySequence sequence, uint32_t k = 1) {
  ServiceRequest request;
  request.query.source = source;
  request.query.target = target;
  request.query.sequence = std::move(sequence);
  request.query.k = k;
  return request;
}

TEST(ServiceTest, SubmitMatchesDirectEngineQuery) {
  auto inst = testing::MakeRandomInstance(60, 320, 4, 4242);
  KosrEngine reference(inst.graph, inst.categories);
  reference.BuildIndexes();
  KosrEngine served(inst.graph, inst.categories);
  served.BuildIndexes();

  ServiceConfig config;
  config.num_workers = 2;
  KosrService service(std::move(served), config);

  std::mt19937_64 rng(11);
  std::uniform_int_distribution<VertexId> pick(0, 59);
  for (int i = 0; i < 12; ++i) {
    ServiceRequest request;
    request.query.source = pick(rng);
    request.query.target = pick(rng);
    request.query.sequence =
        RandomCategorySequence(reference.categories(), 2, rng);
    request.query.k = 3;
    ServiceResponse response = service.Submit(request);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_GE(response.latency_s, 0.0);
    KosrResult expected = reference.Query(request.query, request.options);
    ASSERT_EQ(response.result.routes.size(), expected.routes.size());
    for (size_t j = 0; j < expected.routes.size(); ++j) {
      EXPECT_EQ(response.result.routes[j].cost, expected.routes[j].cost);
      EXPECT_EQ(response.result.routes[j].witness,
                expected.routes[j].witness);
    }
  }
}

TEST(ServiceTest, ConcurrentAsyncSubmissionsAllAnswerCorrectly) {
  auto inst = testing::MakeRandomInstance(60, 320, 4, 777);
  KosrEngine reference(inst.graph, inst.categories);
  reference.BuildIndexes();
  KosrEngine served(inst.graph, inst.categories);
  served.BuildIndexes();

  ServiceConfig config;
  config.num_workers = 4;
  config.queue_capacity = 64;
  KosrService service(std::move(served), config);

  std::mt19937_64 rng(5);
  std::uniform_int_distribution<VertexId> pick(0, 59);
  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 32; ++i) {
    ServiceRequest request;
    request.query.source = pick(rng);
    request.query.target = pick(rng);
    request.query.sequence =
        RandomCategorySequence(reference.categories(), 2, rng);
    request.query.k = 2;
    requests.push_back(std::move(request));
  }
  std::vector<std::future<ServiceResponse>> futures;
  for (const ServiceRequest& request : requests) {
    futures.push_back(service.SubmitAsync(request));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ServiceResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.error;
    KosrResult expected = reference.Query(requests[i].query);
    ASSERT_EQ(response.result.routes.size(), expected.routes.size());
    for (size_t j = 0; j < expected.routes.size(); ++j) {
      EXPECT_EQ(response.result.routes[j].cost, expected.routes[j].cost);
    }
  }
  MetricsSnapshot snapshot = service.Metrics();
  EXPECT_EQ(snapshot.submitted, 32u);
  EXPECT_EQ(snapshot.completed, 32u);
  EXPECT_EQ(snapshot.rejected, 0u);
}

TEST(ServiceTest, RepeatQueryHitsCacheWithIdenticalResult) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  ServiceRequest request = MakeRequest(0, 0, {0});
  ServiceResponse cold = service.Submit(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_EQ(cold.result.routes.size(), 1u);
  EXPECT_EQ(cold.result.routes[0].cost, 6);  // 0 -> 3 -> 0.

  ServiceResponse warm = service.Submit(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result.routes[0].cost, 6);
  EXPECT_EQ(warm.result.routes[0].witness, cold.result.routes[0].witness);
  EXPECT_EQ(service.cache().stats().hits, 1u);
}

TEST(ServiceTest, AddVertexCategoryInvalidatesStaleRoute) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  ServiceRequest request = MakeRequest(0, 0, {0});
  EXPECT_EQ(service.Submit(request).result.routes[0].cost, 6);
  EXPECT_TRUE(service.Submit(request).cache_hit);  // Cached now.

  // Vertex 1 joins category 0: the best route becomes 0 -> 1 -> 0 = 2.
  // Without invalidation the cache would keep serving the stale cost 6.
  service.AddVertexCategory(1, 0);
  ServiceResponse updated = service.Submit(request);
  ASSERT_TRUE(updated.ok());
  EXPECT_FALSE(updated.cache_hit);
  EXPECT_EQ(updated.result.routes[0].cost, 2);
}

TEST(ServiceTest, RemoveVertexCategoryInvalidatesStaleRoute) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  service.AddVertexCategory(1, 0);
  ServiceRequest request = MakeRequest(0, 0, {0});
  EXPECT_EQ(service.Submit(request).result.routes[0].cost, 2);
  EXPECT_TRUE(service.Submit(request).cache_hit);

  // Vertex 1 leaves category 0 again: the cached cost-2 route no longer
  // visits a category-0 vertex; the answer must fall back to cost 6.
  service.RemoveVertexCategory(1, 0);
  ServiceResponse updated = service.Submit(request);
  ASSERT_TRUE(updated.ok());
  EXPECT_FALSE(updated.cache_hit);
  EXPECT_EQ(updated.result.routes[0].cost, 6);
}

TEST(ServiceTest, AddOrDecreaseEdgeInvalidatesWholeCache) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  ServiceRequest request = MakeRequest(0, 3, {1});
  EXPECT_EQ(service.Submit(request).result.routes[0].cost, 3);  // 0-1-2-3.
  EXPECT_TRUE(service.Submit(request).cache_hit);

  // Shortcut 0 -> 2 of weight 1: the optimal route drops to 1 + 1 = 2.
  service.AddOrDecreaseEdge(0, 2, 1);
  ServiceResponse updated = service.Submit(request);
  ASSERT_TRUE(updated.ok());
  EXPECT_FALSE(updated.cache_hit);
  EXPECT_EQ(updated.result.routes[0].cost, 2);
  EXPECT_GT(service.cache().stats().invalidations, 0u);

  // A replayed no-op update (weight not lower than the current arc) changes
  // no distance and must keep the cache warm.
  EXPECT_TRUE(service.Submit(request).cache_hit);  // updated result cached
  service.AddOrDecreaseEdge(0, 2, 1);
  service.AddOrDecreaseEdge(0, 2, 50);
  EXPECT_TRUE(service.Submit(request).cache_hit);
}

TEST(ServiceTest, SetEdgeWeightIncreaseInvalidatesStaleRoute) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  // Shortcut 0 -> 2 of weight 1 makes the best 0 -> [cat 1] -> 3 route
  // 0-2-3 = 2; cache it.
  service.SetEdgeWeight(0, 2, 1);
  ServiceRequest request = MakeRequest(0, 3, {1});
  EXPECT_EQ(service.Submit(request).result.routes[0].cost, 2);
  EXPECT_TRUE(service.Submit(request).cache_hit);

  // Raising the shortcut off the shortest path must drop the stale cost-2
  // route; the answer reverts to 0-1-2-3 = 3.
  EdgeUpdateSummary summary = service.SetEdgeWeight(0, 2, 50).summary;
  EXPECT_TRUE(summary.graph_changed);
  EXPECT_TRUE(summary.labels_changed);
  ServiceResponse updated = service.Submit(request);
  ASSERT_TRUE(updated.ok());
  EXPECT_FALSE(updated.cache_hit);
  EXPECT_EQ(updated.result.routes[0].cost, 3);
}

TEST(ServiceTest, RemoveEdgeInvalidatesStaleRoute) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  service.SetEdgeWeight(0, 2, 1);
  ServiceRequest request = MakeRequest(0, 3, {1});
  EXPECT_EQ(service.Submit(request).result.routes[0].cost, 2);
  EXPECT_TRUE(service.Submit(request).cache_hit);

  EdgeUpdateSummary summary = service.RemoveEdge(0, 2).summary;
  EXPECT_TRUE(summary.graph_changed);
  EXPECT_TRUE(summary.labels_changed);
  ServiceResponse updated = service.Submit(request);
  EXPECT_FALSE(updated.cache_hit);
  EXPECT_EQ(updated.result.routes[0].cost, 3);

  EXPECT_THROW(service.SetEdgeWeight(99, 0, 1), std::invalid_argument);
  EXPECT_THROW(service.RemoveEdge(0, 99), std::invalid_argument);
}

TEST(ServiceTest, TargetedInvalidationKeepsCacheWarmOnNoOpUpdates) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  ServiceRequest request = MakeRequest(0, 3, {1});
  EXPECT_EQ(service.Submit(request).result.routes[0].cost, 3);
  EXPECT_TRUE(service.Submit(request).cache_hit);

  // Any update to an arc that lies on no shortest path — even inserting
  // one — repairs no label, which certifies no answer changed, so the
  // cache must stay warm throughout.
  EdgeUpdateSummary summary = service.SetEdgeWeight(0, 2, 1000).summary;  // detour in
  EXPECT_TRUE(summary.graph_changed);
  EXPECT_FALSE(summary.labels_changed);
  EXPECT_TRUE(service.Submit(request).cache_hit);
  summary = service.SetEdgeWeight(0, 2, 2000).summary;  // raise it
  EXPECT_TRUE(summary.graph_changed);
  EXPECT_FALSE(summary.labels_changed);
  EXPECT_TRUE(service.Submit(request).cache_hit);  // still warm

  // Removing the irrelevant detour repairs nothing either.
  summary = service.RemoveEdge(0, 2).summary;
  EXPECT_TRUE(summary.graph_changed);
  EXPECT_FALSE(summary.labels_changed);
  EXPECT_TRUE(service.Submit(request).cache_hit);

  // Pure no-ops (absent arc, identical weight) never flush.
  service.RemoveEdge(0, 2);
  service.SetEdgeWeight(0, 1, 1);  // already weight 1
  EXPECT_TRUE(service.Submit(request).cache_hit);
}

// Queries race a live stream of every edge-update flavor through the
// reader/writer engine lock; run under the TSan CI job. Every response must
// be a well-formed answer for *some* engine state the updater passed
// through — here we only assert structural sanity and absence of errors.
TEST(ServiceTest, ConcurrentQueriesDuringEdgeUpdatesAreSafe) {
  auto inst = testing::MakeRandomInstance(50, 240, 3, 90);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  auto edges = engine.graph().ToEdges();

  ServiceConfig config;
  config.num_workers = 4;
  config.queue_capacity = 128;
  KosrService service(std::move(engine), config);

  std::thread updater([&] {
    std::mt19937_64 rng(7);
    for (int i = 0; i < 60; ++i) {
      auto [u, v, w] = edges[rng() % edges.size()];
      switch (i % 4) {
        case 0:
          service.SetEdgeWeight(u, v, w + 1 + static_cast<Weight>(rng() % 40));
          break;
        case 1:
          service.RemoveEdge(u, v);
          break;
        case 2:
          service.AddOrDecreaseEdge(u, v, std::max<Weight>(1, w / 2));
          break;
        case 3:
          service.SetEdgeWeight(u, v, w);  // restore
          break;
      }
    }
  });

  std::mt19937_64 rng(13);
  std::uniform_int_distribution<VertexId> pick(0, 49);
  for (int i = 0; i < 120; ++i) {
    ServiceRequest request;
    request.query.source = pick(rng);
    request.query.target = pick(rng);
    request.query.sequence =
        RandomCategorySequence(inst.categories, 2, rng);
    request.query.k = 2;
    request.options.reconstruct_paths = true;
    ServiceResponse response = service.Submit(request);
    ASSERT_TRUE(response.ok()) << response.error;
    for (const SequencedRoute& route : response.result.routes) {
      EXPECT_GE(route.cost, 0);
      EXPECT_EQ(route.witness.size(), request.query.sequence.size() + 2);
    }
  }
  updater.join();
}

TEST(ServiceTest, BackpressureRejectsWhenQueueFull) {
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 4;
  config.start_workers = false;  // Fill the queue deterministically.
  KosrService service(MakeLineEngine(), config);

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.SubmitAsync(MakeRequest(0, 0, {0})));
  }
  EXPECT_EQ(service.queue_depth(), 4u);
  // The overflow futures resolved immediately with kRejected.
  for (int i = 4; i < 6; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[i].get().status, ResponseStatus::kRejected);
  }
  service.Start();
  for (int i = 0; i < 4; ++i) {
    ServiceResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.result.routes[0].cost, 6);
  }
  MetricsSnapshot snapshot = service.Metrics();
  EXPECT_EQ(snapshot.submitted, 6u);
  EXPECT_EQ(snapshot.completed, 4u);
  EXPECT_EQ(snapshot.rejected, 2u);
}

TEST(ServiceTest, StopResolvesPendingRequestsWithShutdown) {
  ServiceConfig config;
  config.start_workers = false;
  KosrService service(MakeLineEngine(), config);
  auto f1 = service.SubmitAsync(MakeRequest(0, 0, {0}));
  auto f2 = service.SubmitAsync(MakeRequest(0, 3, {1}));
  service.Stop();
  EXPECT_EQ(f1.get().status, ResponseStatus::kShutdown);
  EXPECT_EQ(f2.get().status, ResponseStatus::kShutdown);
  // Submissions after Stop() are refused the same way.
  EXPECT_EQ(service.SubmitAsync(MakeRequest(0, 0, {0})).get().status,
            ResponseStatus::kShutdown);
}

TEST(ServiceTest, DynamicUpdatesRejectOutOfRangeArguments) {
  // The engine's update entry points index unchecked; the service fronts
  // untrusted input (the serve protocol) and must throw instead of
  // corrupting the long-lived process.
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  EXPECT_THROW(service.AddVertexCategory(99, 0), std::invalid_argument);
  EXPECT_THROW(service.AddVertexCategory(0, 99), std::invalid_argument);
  EXPECT_THROW(service.RemoveVertexCategory(99, 0), std::invalid_argument);
  EXPECT_THROW(service.RemoveVertexCategory(0, 99), std::invalid_argument);
  EXPECT_THROW(service.AddOrDecreaseEdge(99, 0, 1), std::invalid_argument);
  EXPECT_THROW(service.AddOrDecreaseEdge(0, 99, 1), std::invalid_argument);
  // The service still works afterwards.
  EXPECT_EQ(service.Submit(MakeRequest(0, 0, {0})).result.routes[0].cost, 6);
}

TEST(ServiceTest, OutOfRangeQueryVerticesAreErrorsNotCrashes) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  ServiceResponse response = service.Submit(MakeRequest(9999, 0, {0}));
  EXPECT_EQ(response.status, ResponseStatus::kError);
  response = service.Submit(MakeRequest(0, 9999, {0}));
  EXPECT_EQ(response.status, ResponseStatus::kError);
}

TEST(ServiceTest, DefaultTimeBudgetTruncatesAndSkipsCache) {
  ServiceConfig config;
  config.num_workers = 1;
  config.default_time_budget_s = 1e-12;  // Expires before any work.
  KosrService service(MakeLineEngine(), config);
  ServiceRequest request = MakeRequest(0, 0, {0});
  ServiceResponse response = service.Submit(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.result.stats.timed_out);
  // Truncated answers must not be cached: the repeat recomputes.
  EXPECT_FALSE(service.Submit(request).cache_hit);
  // An explicit per-request budget overrides the default.
  request.options.time_budget_s = 60;
  response = service.Submit(request);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.result.stats.timed_out);
  EXPECT_EQ(response.result.routes[0].cost, 6);
}

TEST(ServiceTest, EngineErrorBecomesErrorResponse) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  ServiceRequest bad = MakeRequest(0, 0, {0}, /*k=*/0);  // Engine throws.
  ServiceResponse response = service.Submit(bad);
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.Metrics().errors, 1u);
}

TEST(ServiceTest, MetricsSnapshotReportsPerMethodHistograms) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  ServiceRequest request = MakeRequest(0, 0, {0});
  service.Submit(request);
  request.options.algorithm = Algorithm::kPruning;
  service.Submit(request);

  MetricsSnapshot snapshot = service.Metrics();
  EXPECT_EQ(snapshot.completed, 2u);
  ASSERT_TRUE(snapshot.per_method.count("SK"));
  ASSERT_TRUE(snapshot.per_method.count("PK"));
  EXPECT_EQ(snapshot.per_method.at("SK").count(), 1u);
  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"qps\""), std::string::npos);
  EXPECT_NE(json.find("\"SK\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);

  service.ResetMetrics();
  EXPECT_EQ(service.Metrics().completed, 0u);
}

TEST(ServiceTest, EngineCountersAndStageSpansFlowIntoMetrics) {
  if (!obs::Enabled()) GTEST_SKIP() << "KOSR_OBS_OFF=1 in the environment";
  ServiceConfig config;
  config.num_workers = 1;
  config.stage_sample_every = 1;  // sample the engine phases of every query
  KosrService service(MakeLineEngine(), config);
  service.Submit(MakeRequest(0, 0, {0}));
  service.Submit(MakeRequest(0, 3, {1}));

  MetricsSnapshot snapshot = service.Metrics();
  // Hop-label queries ran, so the label-query counter must have moved (and
  // with it the merge-join work it implies).
  EXPECT_GT(snapshot.counters[static_cast<size_t>(
                obs::Counter::kLabelQueries)],
            0u);
  // Queue-wait is recorded for every completed request (there is no
  // lock-wait stage: queries run against a pinned snapshot and never block);
  // the sampled engine phases for at least the cache misses.
  using obs::Stage;
  EXPECT_EQ(snapshot.stages[static_cast<size_t>(Stage::kQueueWait)].count(),
            2u);
  EXPECT_GE(snapshot.stages[static_cast<size_t>(Stage::kNn)].count(), 1u);
  EXPECT_GE(snapshot.stages[static_cast<size_t>(Stage::kEnumerate)].count(),
            1u);
  // Gauges read zero at rest: nothing queued, nothing in flight.
  EXPECT_EQ(snapshot.queue_depth, 0u);
  EXPECT_EQ(snapshot.in_flight, 0u);

  // The JSON surface carries all of it and stays parseable.
  obs::JsonValue v = obs::ParseJson(snapshot.ToJson());
  EXPECT_GT(v.At("counters").At("label_queries").number, 0.0);
  EXPECT_EQ(v.At("gauges").At("queue_depth").number, 0.0);
  EXPECT_EQ(v.At("stages").At("queue_wait").At("count").number, 2.0);
  EXPECT_TRUE(v.At("slow_queries").IsArray());
}

// Repairs run on whichever thread applies an update, not on a worker, so
// their counters must be folded into METRICS where the update is applied:
// inline, at a batch flush, and (handed over at construction) in recovery
// replay.
TEST(ServiceTest, RepairCountersReachMetricsOnEveryUpdatePath) {
  if (!obs::Enabled()) GTEST_SKIP() << "KOSR_OBS_OFF=1 in the environment";
  auto repair_counter = [](const KosrService& service, obs::Counter c) {
    return service.Metrics().counters[static_cast<size_t>(c)];
  };
  {
    KosrService service(MakeLineEngine(), {.num_workers = 1});
    // A shortcut 0 -> 2 changes labels: the repair must examine and
    // re-search hubs, and METRICS must say so.
    EdgeUpdateSummary summary = service.SetEdgeWeight(0, 2, 1).summary;
    ASSERT_TRUE(summary.labels_changed);
    EXPECT_GT(repair_counter(service, obs::Counter::kRepairTightnessTests), 0u);
    EXPECT_GT(repair_counter(service, obs::Counter::kRepairResearches), 0u);
  }
  {
    ServiceConfig config;
    config.num_workers = 1;
    config.update_batch_window_s = 60;  // only the explicit flush applies
    KosrService service(MakeLineEngine(), config);
    EXPECT_FALSE(service.SetEdgeWeight(0, 2, 1).applied);
    EXPECT_EQ(repair_counter(service, obs::Counter::kRepairResearches), 0u);
    ASSERT_TRUE(service.FlushUpdates().summary.labels_changed);
    EXPECT_GT(repair_counter(service, obs::Counter::kRepairResearches), 0u);
  }
  {
    DurabilityAttachment replayed;
    replayed.replay_counters.Add(obs::Counter::kRepairResearches, 7);
    KosrService service(MakeLineEngine(), {.num_workers = 1},
                        std::move(replayed));
    EXPECT_EQ(repair_counter(service, obs::Counter::kRepairResearches), 7u);
  }
}

TEST(ServiceTest, SlowQueryLogRetainsMostRecentTraces) {
  if (!obs::Enabled()) GTEST_SKIP() << "KOSR_OBS_OFF=1 in the environment";
  ServiceConfig config;
  config.num_workers = 1;
  config.slow_query_threshold_s = 1e-9;  // everything is "slow"
  config.slow_log_capacity = 4;
  config.stage_sample_every = 1;
  KosrService service(MakeLineEngine(), config);
  for (VertexId source = 0; source < 4; ++source) {
    service.Submit(MakeRequest(source, 0, {0}));
  }
  service.Submit(MakeRequest(0, 3, {1}));
  service.Submit(MakeRequest(1, 3, {1}));

  MetricsSnapshot snapshot = service.Metrics();
  // Six queries tripped the threshold; the ring keeps the last four, in
  // chronological order.
  ASSERT_EQ(snapshot.slow_queries.size(), 4u);
  EXPECT_EQ(snapshot.slow_queries.back().source, 1u);
  EXPECT_EQ(snapshot.slow_queries.back().target, 3u);
  for (const obs::SlowQueryEntry& entry : snapshot.slow_queries) {
    EXPECT_EQ(entry.method, "SK");
    EXPECT_GE(entry.latency_s, 0.0);
    EXPECT_TRUE(entry.stages.Recorded(obs::Stage::kQueueWait));
  }
  obs::JsonValue v = obs::ParseJson(snapshot.ToJson());
  EXPECT_EQ(v.At("slow_queries").items.size(), 4u);

  // Reset drops the retained traces with everything else.
  service.ResetMetrics();
  EXPECT_TRUE(service.Metrics().slow_queries.empty());
}

TEST(ServiceTest, SlowQueryLogStaysEmptyWithoutAThreshold) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  service.Submit(MakeRequest(0, 0, {0}));
  EXPECT_TRUE(service.Metrics().slow_queries.empty());
}

// Reset vs Record vs Snapshot from three threads: the regression here was
// Reset() zeroing the request counters outside the histogram mutex, letting
// a concurrent Snapshot pair fresh counters with a stale uptime clock.
// TSan (the CI build-tsan job runs this binary) would flag the old layout.
TEST(MetricsRegistryTest, ResetRacesCleanlyWithRecordAndSnapshot) {
  MetricsRegistry registry;
  registry.SetSlowLogCapacity(2);
  std::atomic<bool> stop{false};
  std::atomic<bool> saw_incoherent{false};
  std::thread recorder([&] {
    obs::EngineCounters delta;
    delta.Add(obs::Counter::kLabelQueries, 3);
    obs::StageTimes stages;
    stages.Set(obs::Stage::kQueueWait, 1e-6);
    obs::SlowQueryEntry entry;
    entry.method = "SK";
    while (!stop.load(std::memory_order_relaxed)) {
      registry.RecordSubmitted();
      registry.RecordCompleted(Algorithm::kStar, NnMode::kHopLabel, 1e-4);
      registry.AddEngineCounters(delta);
      registry.RecordStages(stages);
      registry.RecordSlowQuery(entry);
    }
  });
  std::thread snapshotter([&] {
    CacheStats cache;
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap = registry.Snapshot(cache, 1, 1, SnapshotGauges{});
      if (snap.uptime_s < 0 || snap.qps < 0 ||
          snap.slow_queries.size() > 2) {
        saw_incoherent.store(true);
      }
    }
  });
  for (int i = 0; i < 2000; ++i) registry.Reset();
  stop.store(true);
  recorder.join();
  snapshotter.join();
  EXPECT_FALSE(saw_incoherent.load());
}

// ---------------------------------------------------------------------------
// Newline protocol (src/service/protocol.h).
// ---------------------------------------------------------------------------

TEST(ProtocolTest, ParseMethodCoversAllSixMethods) {
  Algorithm algorithm;
  NnMode nn_mode;
  ASSERT_TRUE(ParseMethod("sk", &algorithm, &nn_mode));
  EXPECT_EQ(algorithm, Algorithm::kStar);
  EXPECT_EQ(nn_mode, NnMode::kHopLabel);
  ASSERT_TRUE(ParseMethod("kpne-dij", &algorithm, &nn_mode));
  EXPECT_EQ(algorithm, Algorithm::kKpne);
  EXPECT_EQ(nn_mode, NnMode::kDijkstra);
  ASSERT_TRUE(ParseMethod("pk-dij", &algorithm, &nn_mode));
  EXPECT_EQ(algorithm, Algorithm::kPruning);
  EXPECT_FALSE(ParseMethod("bfs", &algorithm, &nn_mode));
  EXPECT_FALSE(ParseMethod("", &algorithm, &nn_mode));
}

TEST(ProtocolTest, HandleRequestLineAnswersEachCommand) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  EXPECT_EQ(HandleRequestLine(service, "PING"), "OK PONG");
  EXPECT_EQ(HandleRequestLine(service, "QUIT"), "OK BYE");

  std::string query = HandleRequestLine(service, "QUERY 0 0 0 1");
  EXPECT_EQ(query.rfind("OK ROUTES n=1 costs=6", 0), 0u) << query;

  std::string add_cat = HandleRequestLine(service, "ADD_CAT 1 0");
  EXPECT_EQ(add_cat.rfind("OK UPDATED version=", 0), 0u) << add_cat;
  std::string updated = HandleRequestLine(service, "QUERY 0 0 0 1");
  EXPECT_EQ(updated.rfind("OK ROUTES n=1 costs=2", 0), 0u) << updated;
  std::string remove_cat = HandleRequestLine(service, "REMOVE_CAT 1 0");
  EXPECT_EQ(remove_cat.rfind("OK UPDATED version=", 0), 0u) << remove_cat;
  // Directed shortcut 0 -> 3 of weight 1: route 0 -> 3 -> 0 = 1 + 3 = 4.
  std::string add_edge = HandleRequestLine(service, "ADD_EDGE 0 3 1");
  EXPECT_EQ(add_edge.rfind("OK UPDATED changed=1", 0), 0u) << add_edge;
  std::string shortcut = HandleRequestLine(service, "QUERY 0 0 0 1");
  EXPECT_EQ(shortcut.rfind("OK ROUTES n=1 costs=4", 0), 0u) << shortcut;

  std::string metrics = HandleRequestLine(service, "METRICS");
  EXPECT_EQ(metrics.rfind("OK METRICS {", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("\"cache\""), std::string::npos);
}

TEST(ProtocolTest, MetricsPayloadIsParseableAndComplete) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  std::string query = HandleRequestLine(service, "QUERY 0 0 0 1");
  ASSERT_EQ(query.rfind("OK ROUTES", 0), 0u) << query;

  std::string line = HandleRequestLine(service, "METRICS");
  const std::string prefix = "OK METRICS ";
  ASSERT_EQ(line.rfind(prefix, 0), 0u) << line;
  obs::JsonValue v = obs::ParseJson(line.substr(prefix.size()));
  for (const char* key :
       {"uptime_s", "gauges", "cache", "methods", "stages", "counters",
        "slow_queries"}) {
    EXPECT_NE(v.Find(key), nullptr) << "missing " << key;
  }
  EXPECT_EQ(v.At("completed").number, 1.0);
  if (obs::Enabled()) {
    // The protocol layer timed the response formatting of the QUERY above.
    EXPECT_GE(v.At("stages").At("serialize").At("count").number, 1.0);
  }
}

TEST(ProtocolTest, SetAndRemoveEdgeVerbsReportRepairSummaries) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  // Raise the 0 -> 3 shortcut in, off, and out of the shortest path; the
  // response reports whether the graph changed and how many label vectors
  // the repair touched.
  std::string set = HandleRequestLine(service, "SET_EDGE 0 3 1");
  EXPECT_EQ(set.rfind("OK UPDATED changed=1 labels=", 0), 0u) << set;
  std::string query = HandleRequestLine(service, "QUERY 0 0 0 1");
  EXPECT_EQ(query.rfind("OK ROUTES n=1 costs=4", 0), 0u) << query;

  // Increase: the shortcut leaves the shortest path, answers revert.
  std::string raised = HandleRequestLine(service, "SET_EDGE 0 3 500");
  EXPECT_EQ(raised.rfind("OK UPDATED changed=1 labels=", 0), 0u) << raised;
  EXPECT_NE(raised.rfind("OK UPDATED changed=1 labels=0 ", 0), 0u) << raised;
  query = HandleRequestLine(service, "QUERY 0 0 0 1");
  EXPECT_EQ(query.rfind("OK ROUTES n=1 costs=6", 0), 0u) << query;

  // Raising an off-shortest-path arc repairs nothing (labels=0), and
  // setting the same weight again is a full no-op (changed=0).
  std::string off_path = HandleRequestLine(service, "SET_EDGE 0 3 600");
  EXPECT_EQ(off_path.rfind("OK UPDATED changed=1 labels=0 version=", 0), 0u)
      << off_path;
  std::string same = HandleRequestLine(service, "SET_EDGE 0 3 600");
  EXPECT_EQ(same.rfind("OK UPDATED changed=0 labels=0 version=", 0), 0u)
      << same;

  // Removal; removing again is a no-op.
  std::string removed = HandleRequestLine(service, "REMOVE_EDGE 0 3");
  EXPECT_EQ(removed.rfind("OK UPDATED changed=1 labels=0 version=", 0), 0u)
      << removed;
  std::string noop = HandleRequestLine(service, "REMOVE_EDGE 0 3");
  EXPECT_EQ(noop.rfind("OK UPDATED changed=0 labels=0 version=", 0), 0u)
      << noop;
  query = HandleRequestLine(service, "QUERY 0 0 0 1");
  EXPECT_EQ(query.rfind("OK ROUTES n=1 costs=6", 0), 0u) << query;
}

TEST(ProtocolTest, MalformedRequestsReturnErrNotThrow) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  EXPECT_EQ(HandleRequestLine(service, "FROBNICATE").rfind("ERR ", 0), 0u);
  EXPECT_EQ(HandleRequestLine(service, "QUERY 0 0").rfind("ERR ", 0), 0u);
  EXPECT_EQ(HandleRequestLine(service, "QUERY x y 0 1").rfind("ERR ", 0), 0u);
  EXPECT_EQ(HandleRequestLine(service, "QUERY 0 0 0 1 bfs").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "ADD_CAT 1").rfind("ERR ", 0), 0u);
  // Engine-level failure (k = 0) surfaces as ERR, and the loop survives.
  EXPECT_EQ(HandleRequestLine(service, "QUERY 0 0 0 0").rfind("ERR ", 0), 0u);
  // Out-of-range ids must come back as ERR, never crash the server.
  EXPECT_EQ(HandleRequestLine(service, "QUERY 9999 0 0 1").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "ADD_CAT 9999 0").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "ADD_CAT 0 999").rfind("ERR ", 0), 0u);
  EXPECT_EQ(HandleRequestLine(service, "REMOVE_CAT 9999 0").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "ADD_EDGE 9999 0 1").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "SET_EDGE 9999 0 1").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "SET_EDGE 0 1").rfind("ERR ", 0), 0u);
  EXPECT_EQ(HandleRequestLine(service, "SET_EDGE 0 1 -4").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "REMOVE_EDGE 0").rfind("ERR ", 0), 0u);
  EXPECT_EQ(HandleRequestLine(service, "REMOVE_EDGE 0 9999").rfind("ERR ", 0),
            0u);
  // Signed tokens must be rejected, not wrapped through unsigned parsing
  // (a weight of "-5" must not become a ~4-billion-weight edge).
  EXPECT_EQ(HandleRequestLine(service, "ADD_EDGE 0 1 -5").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "QUERY 0 0 0 -1").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "QUERY 0 0 0,-1 1").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(HandleRequestLine(service, "QUERY 0 0 0,, 1").rfind("ERR ", 0),
            0u);
  EXPECT_EQ(
      HandleRequestLine(service, "QUERY 0 0 0 99999999999").rfind("ERR ", 0),
      0u);
}

TEST(ProtocolTest, ServeLoopAnswersLinesInOrderAndStopsAtQuit) {
  KosrService service(MakeLineEngine(), {.num_workers = 1});
  std::istringstream in(
      "# warm-up comment\n"
      "\n"
      "PING\n"
      "QUERY 0 0 0 1\n"
      "QUERY 0 0 0 1\n"
      "QUIT\n"
      "PING\n");  // After QUIT: must not be served.
  std::ostringstream out;
  uint64_t handled = RunServeLoop(service, in, out);
  EXPECT_EQ(handled, 4u);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK PONG");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("OK ROUTES n=1 costs=6 cached=0", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("OK ROUTES n=1 costs=6 cached=1", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK BYE");
  EXPECT_FALSE(std::getline(lines, line));
}

}  // namespace
}  // namespace kosr::service
