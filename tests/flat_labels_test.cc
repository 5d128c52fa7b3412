// Property tests for the sealed flat SoA label store, the only copy of the
// labels: on randomized graphs Query / QueryWithHub / UnpackPath must agree
// with a Dijkstra oracle, and after batches of dynamic updates in every
// direction (weight decreases, increases, and deletions: edit buffers
// resealed in place, tail growth, in-place shrinks, emptied runs, and the
// garbage-triggered compaction) and after a snapshot save/load round trip,
// the runs must equal those of a from-scratch Build of the current graph
// with the same hub order.

#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/labeling/hub_labeling.h"
#include "tests/test_util.h"

namespace kosr {
namespace {

using testing::DistanceOracle;

// The store must equal a from-scratch Build of `graph` with the same hub
// order — run for run, sentinel included, and in its Serialize bytes. This
// is the strongest equivalence statement, and every query-level check
// below follows from it.
void ExpectMatchesRebuild(const Graph& graph, const HubLabeling& hl) {
  HubLabeling rebuilt;
  rebuilt.Build(graph, testing::HubOrder(hl));
  testing::ExpectSameLabels(hl, rebuilt);
}

// Query and QueryWithHub agree with Dijkstra for every pair, and the
// reported witness hub really is in both runs at that total distance.
void ExpectQueriesCorrect(const Graph& graph, const HubLabeling& hl) {
  DistanceOracle dis(graph);
  uint32_t n = hl.num_vertices();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      auto q = hl.QueryWithHub(s, t);
      EXPECT_EQ(hl.Query(s, t), dis(s, t)) << s << "->" << t;
      if (!q.has_value()) {
        EXPECT_EQ(dis(s, t), kInfCost) << s << "->" << t;
        continue;
      }
      EXPECT_EQ(q->first, dis(s, t)) << s << "->" << t;
      LabelRun out = hl.OutRun(s);
      LabelRun in = hl.InRun(t);
      uint32_t i = FindRankInRun(out, q->second);
      uint32_t j = FindRankInRun(in, q->second);
      ASSERT_LT(i, out.size) << s << "->" << t;
      ASSERT_LT(j, in.size) << s << "->" << t;
      EXPECT_EQ(static_cast<Cost>(out.DistAt(i)) + in.DistAt(j), q->first);
    }
  }
}

void ExpectUnpackedPathsValid(const Graph& graph, const HubLabeling& hl) {
  uint32_t n = hl.num_vertices();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      std::vector<VertexId> path = hl.UnpackPath(s, t);
      Cost d = hl.Query(s, t);
      if (s == t) {
        ASSERT_EQ(path, std::vector<VertexId>{s});
        continue;
      }
      if (d >= kInfCost) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(path.front(), s);
      EXPECT_EQ(path.back(), t);
      Cost total = 0;
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        Cost leg = graph.ArcWeight(path[i], path[i + 1]);
        ASSERT_LT(leg, kInfCost)
            << path[i] << "->" << path[i + 1] << " is not an arc";
        total += leg;
      }
      EXPECT_EQ(total, d);
    }
  }
}

TEST(FlatLabelsTest, SealedStoreAnswersCorrectlyOnRandomGraphs) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    Graph graph = MakeRandomGraph(60, 240, seed);
    HubLabeling hl;
    hl.Build(graph);
    ExpectQueriesCorrect(graph, hl);
    ExpectUnpackedPathsValid(graph, hl);
  }
}

TEST(FlatLabelsTest, SealedStoreAnswersCorrectlyOnGrid) {
  Graph graph = MakeGridRoadNetwork(7, 7, 5, 10, 100, 0);
  HubLabeling hl;
  hl.Build(graph);
  ExpectQueriesCorrect(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
}

TEST(FlatLabelsTest, ParallelBuildSealsIdentically) {
  Graph graph = MakeRandomGraph(80, 400, 7);
  HubLabeling sequential;
  sequential.Build(graph, 1);
  HubLabeling parallel;
  parallel.Build(graph, testing::TestThreads());
  testing::ExpectSameLabels(parallel, sequential);
}

// A long stream of weight decreases exercises every re-seal path: in-place
// overwrites (distance improved, run length unchanged), tail appends (run
// grew a new hub), and eventually the garbage-triggered compaction. After
// every update the store must equal a from-scratch rebuild.
TEST(FlatLabelsTest, EquivalentAfterDynamicDecreaseBatch) {
  std::mt19937_64 rng(99);
  Graph graph = MakeRandomGraph(50, 180, 17);
  HubLabeling hl;
  hl.Build(graph);
  std::uniform_int_distribution<VertexId> pick(0, graph.num_vertices() - 1);
  std::uniform_int_distribution<Weight> weight(1, 40);
  uint32_t applied = 0;
  for (uint32_t step = 0; step < 120; ++step) {
    VertexId u = pick(rng), v = pick(rng);
    Weight w = weight(rng);
    if (!graph.AddOrDecreaseArc(u, v, w)) continue;
    hl.OnEdgeDecreased(graph, u, v, w);
    ++applied;
    ExpectMatchesRebuild(graph, hl);
  }
  ASSERT_GT(applied, 20u);  // the stream must actually exercise repairs
  ExpectQueriesCorrect(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
}

// Joining two previously disconnected components makes runs grow out of
// the shared empty block (an isolated sink has an empty Lin everywhere but
// itself) — the reseal path that repoints start[v] from slot 0 to an owned
// tail slot must keep the store equal to a rebuild.
TEST(FlatLabelsTest, EmptyRunsGrowAfterConnectingUpdate) {
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  for (VertexId v = 0; v + 1 < 6; ++v) {
    edges.emplace_back(v, v + 1, 3);
    edges.emplace_back(v + 1, v, 3);
  }
  for (VertexId v = 6; v + 1 < 12; ++v) {
    edges.emplace_back(v, v + 1, 5);
    edges.emplace_back(v + 1, v, 5);
  }
  Graph graph = Graph::FromEdges(12, edges);
  HubLabeling hl;
  hl.Build(graph);
  // Cross-component pairs are unreachable before the bridging update.
  ASSERT_GE(hl.Query(0, 11), kInfCost);
  ASSERT_TRUE(graph.AddOrDecreaseArc(5, 6, 2));
  hl.OnEdgeDecreased(graph, 5, 6, 2);
  ExpectMatchesRebuild(graph, hl);
  ExpectQueriesCorrect(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
}

// Mixed weakening stream (increases and deletions) exercises the re-seal
// paths the decrease batch cannot: in-place *shrinks* (a hub lost coverage
// of a vertex, the run got shorter) and runs emptied outright (a deletion
// disconnected a vertex). After every repair the store must match a
// canonical rebuild with the same order byte for byte and keep answering
// correctly.
TEST(FlatLabelsTest, EquivalentAfterIncreaseAndRemovalStream) {
  std::mt19937_64 rng(4242);
  Graph graph = MakeRandomGraph(45, 170, 29);
  HubLabeling hl;
  hl.Build(graph);

  uint32_t applied = 0;
  for (uint32_t step = 0; step < 60; ++step) {
    auto edges = graph.ToEdges();
    if (edges.empty()) break;
    auto [u, v, w] = edges[rng() % edges.size()];
    if (step % 3 == 0) {
      auto old = graph.RemoveArc(u, v);
      ASSERT_TRUE(old.has_value());
      LabelRepairDelta delta =
          hl.OnEdgeRemoved(graph, u, v, static_cast<Weight>(*old));
      applied += delta.Empty() ? 0 : 1;
    } else {
      Weight raised = w + 1 + static_cast<Weight>(rng() % 60);
      auto old = graph.SetArcWeight(u, v, raised);
      ASSERT_TRUE(old.has_value());
      LabelRepairDelta delta =
          hl.OnEdgeIncreased(graph, u, v, static_cast<Weight>(*old));
      applied += delta.Empty() ? 0 : 1;
    }
    ExpectMatchesRebuild(graph, hl);
  }
  ASSERT_GT(applied, 15u);  // the stream must actually trigger repairs
  ExpectQueriesCorrect(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
}

// Deleting a vertex's every incident arc empties its label runs (only the
// self-entry can survive on one side) — the re-seal must repoint shrunken
// and emptied runs correctly and the store must equal a rebuild.
TEST(FlatLabelsTest, RunsShrinkAndEmptyAfterIsolatingAVertex) {
  Graph graph = MakeGridRoadNetwork(5, 5, 3, 10, 100, 0);
  HubLabeling hl;
  hl.Build(graph);
  VertexId isolated = 12;  // grid center
  for (auto [u, v, w] : graph.ToEdges()) {
    if (u != isolated && v != isolated) continue;
    auto old = graph.RemoveArc(u, v);
    if (!old.has_value()) continue;  // already removed as a parallel
    hl.OnEdgeRemoved(graph, u, v, static_cast<Weight>(*old));
    ExpectMatchesRebuild(graph, hl);
  }
  // The isolated vertex reaches nothing and is reached by nothing; at most
  // its own self-entries remain.
  for (VertexId t = 0; t < hl.num_vertices(); ++t) {
    if (t == isolated) continue;
    EXPECT_GE(hl.Query(isolated, t), kInfCost);
    EXPECT_GE(hl.Query(t, isolated), kInfCost);
  }
  EXPECT_LE(hl.InRun(isolated).size, 1u);
  EXPECT_LE(hl.OutRun(isolated).size, 1u);
  ExpectQueriesCorrect(graph, hl);
  ExpectUnpackedPathsValid(graph, hl);
}

TEST(FlatLabelsTest, EquivalentAfterSnapshotRoundTrip) {
  Graph graph = MakeRandomGraph(60, 260, 23);
  HubLabeling hl;
  hl.Build(graph);
  std::stringstream stream;
  hl.Serialize(stream);
  HubLabeling loaded = HubLabeling::Deserialize(stream);
  testing::ExpectSameLabels(loaded, hl);
  ExpectQueriesCorrect(graph, loaded);
  ExpectUnpackedPathsValid(graph, loaded);
  // And a decrease applied to the *loaded* labeling repairs its flat store
  // too (snapshot -> serve -> dynamic update is the service's real path).
  ASSERT_TRUE(graph.AddOrDecreaseArc(0, graph.num_vertices() - 1, 1));
  loaded.OnEdgeDecreased(graph, 0, graph.num_vertices() - 1, 1);
  ExpectMatchesRebuild(graph, loaded);
  ExpectQueriesCorrect(graph, loaded);
}

TEST(FlatLabelsTest, FromPartsSealsPartialWorkingSet) {
  Graph graph = MakeRandomGraph(40, 160, 31);
  HubLabeling full;
  full.Build(graph);
  // Working set: only Lout(3) and Lin(8) populated, like a disk-store load.
  std::vector<std::vector<LabelEntry>> in(40), out(40);
  out[3] = testing::RunEntries(full.OutRun(3));
  in[8] = testing::RunEntries(full.InRun(8));
  HubLabeling partial =
      HubLabeling::FromParts(testing::HubOrder(full), in, out);
  EXPECT_EQ(testing::RunEntries(partial.OutRun(3)), out[3]);
  EXPECT_EQ(testing::RunEntries(partial.InRun(8)), in[8]);
  EXPECT_EQ(partial.OutRun(3).key[partial.OutRun(3).size], kSentinelKey);
  EXPECT_EQ(partial.Query(3, 8), full.Query(3, 8));
  // Unloaded vertices answer unreachable, with empty (sentinel-only) runs.
  EXPECT_EQ(partial.OutRun(5).size, 0u);
  EXPECT_EQ(partial.OutRun(5).key[0], kSentinelKey);
  EXPECT_GE(partial.Query(5, 8), kInfCost);
}

TEST(FlatLabelsTest, FlatBytesTracksStore) {
  Graph graph = MakeRandomGraph(30, 120, 41);
  HubLabeling hl;
  hl.Build(graph);
  // Lower bound: every entry appears in both arrays' SoA slots.
  EXPECT_GT(hl.FlatBytes(), hl.IndexBytes());
}

}  // namespace
}  // namespace kosr
