// Randomized dynamic-update equivalence: a KosrEngine that absorbed a
// sequence of in-place edge and category updates — decreases, *increases*,
// and *deletions* — must answer exactly like an engine rebuilt from scratch
// on the final graph/categories (label distance queries, unpacked path
// costs, full KOSR queries), and its incrementally repaired labels must be
// *byte-identical* to a from-scratch build with the same hub order, with
// the incrementally patched inverted indexes matching per-category
// rebuilds. Also pins the in-place AddOrDecreaseArc regressions: repeated
// updates to the same edge may not grow the arc lists.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <sstream>
#include <vector>

#include "src/core/engine.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/nn/inverted_label_index.h"
#include "src/obs/counters.h"
#include "tests/test_util.h"

namespace kosr {
namespace {

// The canonical-label invariant: an incrementally repaired labeling must be
// byte-identical to a from-scratch Build on the current graph with the
// *same hub order* (the repair never re-ranks; a rebuilt engine would pick
// a fresh degree order, so the order is pinned explicitly). The inverted
// indexes, patched list by list from repair deltas, must equally match
// per-category from-scratch builds.
void ExpectLabelsCanonical(const KosrEngine& updated) {
  uint32_t n = updated.graph().num_vertices();
  KosrEngine rebuilt(Graph::FromEdges(n, updated.graph().ToEdges()),
                     updated.categories());
  rebuilt.BuildIndexes(testing::HubOrder(updated.labeling()));
  // Run for run and byte for byte: the serialized snapshots match too.
  testing::ExpectSameLabels(updated.labeling(), rebuilt.labeling());

  for (CategoryId c = 0; c < updated.categories().num_categories(); ++c) {
    const InvertedLabelIndex& got = updated.inverted(c);
    const InvertedLabelIndex& want = rebuilt.inverted(c);
    ASSERT_EQ(got.num_lists(), want.num_lists()) << "category " << c;
    ASSERT_EQ(got.total_entries(), want.total_entries()) << "category " << c;
    for (uint32_t r = 0; r < n; ++r) {
      auto got_list = got.Entries(r);
      auto want_list = want.Entries(r);
      ASSERT_EQ(got_list.size(), want_list.size())
          << "category " << c << " hub rank " << r;
      for (size_t i = 0; i < got_list.size(); ++i) {
        ASSERT_EQ(got_list[i].member, want_list[i].member)
            << "category " << c << " hub rank " << r << " entry " << i;
        ASSERT_EQ(got_list[i].dist, want_list[i].dist)
            << "category " << c << " hub rank " << r << " entry " << i;
      }
    }
  }
}

// Every-pair label queries + unpacked path costs must match a from-scratch
// rebuild of the current graph.
void ExpectMatchesRebuild(const KosrEngine& updated) {
  Graph rebuilt_graph = Graph::FromEdges(updated.graph().num_vertices(),
                                         updated.graph().ToEdges());
  CategoryTable rebuilt_cats = updated.categories();
  KosrEngine rebuilt(std::move(rebuilt_graph), std::move(rebuilt_cats));
  rebuilt.BuildIndexes();

  uint32_t n = updated.graph().num_vertices();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      Cost expected = rebuilt.labeling().Query(s, t);
      ASSERT_EQ(updated.labeling().Query(s, t), expected)
          << "s=" << s << " t=" << t;
      if (expected == kInfCost || s == t) continue;
      // The unpacked path must exist and cost exactly the query distance on
      // the updated graph.
      std::vector<VertexId> path = updated.labeling().UnpackPath(s, t);
      ASSERT_FALSE(path.empty()) << "s=" << s << " t=" << t;
      ASSERT_EQ(path.front(), s);
      ASSERT_EQ(path.back(), t);
      Cost total = 0;
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        Cost w = updated.graph().ArcWeight(path[i], path[i + 1]);
        ASSERT_LT(w, kInfCost)
            << "missing arc " << path[i] << "->" << path[i + 1];
        total += w;
      }
      ASSERT_EQ(total, expected) << "s=" << s << " t=" << t;
    }
  }

  // A few full KOSR queries through the repaired inverted indexes.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  uint32_t num_categories = updated.categories().num_categories();
  for (int q = 0; q < 8; ++q) {
    KosrQuery query;
    query.source = pick(rng);
    query.target = pick(rng);
    query.sequence = {q % num_categories, (q + 1) % num_categories};
    query.k = 3;
    KosrResult got = updated.Query(query);
    KosrResult want = rebuilt.Query(query);
    ASSERT_EQ(got.routes.size(), want.routes.size()) << "query " << q;
    for (size_t i = 0; i < got.routes.size(); ++i) {
      EXPECT_EQ(got.routes[i].cost, want.routes[i].cost)
          << "query " << q << " route " << i;
    }
  }

  ExpectLabelsCanonical(updated);
}

TEST(DynamicUpdateTest, RandomizedUpdatesMatchFromScratchRebuild) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    auto inst = testing::MakeRandomInstance(36, 130, 3, seed);
    KosrEngine engine(inst.graph, inst.categories);
    engine.BuildIndexes(testing::TestThreads());

    std::mt19937_64 rng(seed * 997);
    std::uniform_int_distribution<VertexId> pick_vertex(0, 35);
    std::uniform_int_distribution<uint32_t> pick_cat(0, 2);
    std::uniform_int_distribution<Weight> pick_weight(1, 80);
    std::uniform_int_distribution<int> pick_op(0, 3);
    for (int step = 0; step < 24; ++step) {
      switch (pick_op(rng)) {
        case 0:
        case 1: {  // edge updates dominate the mix
          VertexId u = pick_vertex(rng), v = pick_vertex(rng);
          if (u != v) engine.AddOrDecreaseEdge(u, v, pick_weight(rng));
          break;
        }
        case 2: {
          VertexId v = pick_vertex(rng);
          CategoryId c = pick_cat(rng);
          if (!engine.categories().Has(v, c)) engine.AddVertexCategory(v, c);
          break;
        }
        case 3: {
          VertexId v = pick_vertex(rng);
          CategoryId c = pick_cat(rng);
          // Keep every category non-empty so KOSR queries stay comparable.
          if (engine.categories().Has(v, c) &&
              engine.categories().CategorySize(c) > 1) {
            engine.RemoveVertexCategory(v, c);
          }
          break;
        }
      }
      if (step % 8 == 7) ExpectMatchesRebuild(engine);
    }
    ExpectMatchesRebuild(engine);
  }
}

TEST(DynamicUpdateTest, RepeatedEdgeUpdatesDoNotGrowArcCount) {
  auto inst = testing::MakeRandomInstance(40, 140, 3, 7);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();

  uint64_t before = engine.graph().num_edges();
  engine.AddOrDecreaseEdge(3, 29, 60);
  uint64_t after_insert = engine.graph().num_edges();
  EXPECT_LE(after_insert, before + 1);  // at most one new arc, ever

  // Regression for the ToEdges/FromEdges append: 20 updates to the same
  // edge used to add 20 parallel arcs.
  for (Weight w = 59; w >= 40; --w) engine.AddOrDecreaseEdge(3, 29, w);
  EXPECT_EQ(engine.graph().num_edges(), after_insert);
  EXPECT_EQ(engine.graph().ArcWeight(3, 29), 40);

  // A worse weight is a no-op: no arc growth, no weight change.
  engine.AddOrDecreaseEdge(3, 29, 1000);
  EXPECT_EQ(engine.graph().num_edges(), after_insert);
  EXPECT_EQ(engine.graph().ArcWeight(3, 29), 40);

  // Self loops and out-of-range endpoints are rejected without mutation.
  engine.AddOrDecreaseEdge(5, 5, 1);
  EXPECT_EQ(engine.graph().num_edges(), after_insert);
  EXPECT_THROW(engine.AddOrDecreaseEdge(3, 4000, 1), std::invalid_argument);

  ExpectMatchesRebuild(engine);
}

// The full dynamic surface in one randomized stream: weight decreases,
// weight increases (SET_EDGE), deletions (REMOVE_EDGE), fresh inserts, and
// category churn, interleaved — checked label-for-label against canonical
// rebuilds along the way and at the end.
TEST(DynamicUpdateTest, MixedIncreaseDecreaseDeleteMatchesRebuild) {
  for (uint64_t seed : {3u, 14u, 59u}) {
    auto inst = testing::MakeRandomInstance(30, 110, 3, seed);
    KosrEngine engine(inst.graph, inst.categories);
    engine.BuildIndexes(testing::TestThreads());

    std::mt19937_64 rng(seed * 2654435761u);
    std::uniform_int_distribution<VertexId> pick_vertex(0, 29);
    std::uniform_int_distribution<Weight> pick_weight(1, 90);
    std::uniform_int_distribution<int> pick_op(0, 5);
    for (int step = 0; step < 30; ++step) {
      switch (pick_op(rng)) {
        case 0: {  // insert / decrease
          VertexId u = pick_vertex(rng), v = pick_vertex(rng);
          if (u != v) engine.AddOrDecreaseEdge(u, v, pick_weight(rng));
          break;
        }
        case 1: {  // arbitrary set: increase or decrease of a random pair
          VertexId u = pick_vertex(rng), v = pick_vertex(rng);
          if (u != v) engine.SetEdgeWeight(u, v, pick_weight(rng));
          break;
        }
        case 2: {  // guaranteed increase of an existing arc
          auto edges = engine.graph().ToEdges();
          auto [u, v, w] = edges[rng() % edges.size()];
          EdgeUpdateSummary summary =
              engine.SetEdgeWeight(u, v, w + 1 + pick_weight(rng));
          EXPECT_TRUE(summary.graph_changed);
          break;
        }
        case 3: {  // deletion of an existing arc
          auto edges = engine.graph().ToEdges();
          if (edges.size() <= 1) break;  // keep the graph non-trivial
          auto [u, v, w] = edges[rng() % edges.size()];
          EdgeUpdateSummary summary = engine.RemoveEdge(u, v);
          EXPECT_TRUE(summary.graph_changed);
          break;
        }
        case 4: {
          VertexId v = pick_vertex(rng);
          CategoryId c = static_cast<CategoryId>(rng() % 3);
          if (!engine.categories().Has(v, c)) engine.AddVertexCategory(v, c);
          break;
        }
        case 5: {
          VertexId v = pick_vertex(rng);
          CategoryId c = static_cast<CategoryId>(rng() % 3);
          if (engine.categories().Has(v, c) &&
              engine.categories().CategorySize(c) > 1) {
            engine.RemoveVertexCategory(v, c);
          }
          break;
        }
      }
      if (step % 10 == 9) ExpectMatchesRebuild(engine);
    }
    ExpectMatchesRebuild(engine);
  }
}

// A weight increase on an arc that lies on no shortest path (tight for no
// hub) must repair nothing — and because the hub order covers every vertex,
// an empty repair certifies that no distance changed at all. This is the
// signal the service uses to keep its result cache warm.
TEST(DynamicUpdateTest, OffShortestPathIncreaseRepairsNothing) {
  // Directed chain 0 -> 1 -> 2 -> 3 (unit weights) plus a detour arc
  // 0 -> 3 of weight 100 that no shortest path uses.
  Graph graph = Graph::FromEdges(
      4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 100}});
  CategoryTable cats(4, 1);
  cats.Add(2, 0);
  KosrEngine engine(std::move(graph), std::move(cats));
  engine.BuildIndexes();
  ASSERT_EQ(engine.labeling().Query(0, 3), 3);

  EdgeUpdateSummary summary = engine.SetEdgeWeight(0, 3, 200);
  EXPECT_TRUE(summary.graph_changed);
  EXPECT_FALSE(summary.labels_changed);
  EXPECT_EQ(summary.changed_in_labels, 0u);
  EXPECT_EQ(summary.changed_out_labels, 0u);
  EXPECT_EQ(engine.labeling().Query(0, 3), 3);
  ExpectMatchesRebuild(engine);

  // Raising it onto the shortest path *down* is a decrease repair; pushing
  // the chain's middle arc up makes the detour the new shortest path.
  summary = engine.SetEdgeWeight(1, 2, 500);
  EXPECT_TRUE(summary.labels_changed);
  EXPECT_EQ(engine.labeling().Query(0, 3), 200);
  ExpectMatchesRebuild(engine);
}

TEST(DynamicUpdateTest, RemovingBridgeDisconnectsAndMatchesRebuild) {
  // Two directed cycles joined by a single bridge arc 2 -> 3.
  Graph graph = Graph::FromEdges(6, {{0, 1, 2},
                                     {1, 2, 2},
                                     {2, 0, 2},
                                     {3, 4, 2},
                                     {4, 5, 2},
                                     {5, 3, 2},
                                     {2, 3, 7}});
  CategoryTable cats(6, 2);
  cats.Add(1, 0);
  cats.Add(4, 1);
  KosrEngine engine(std::move(graph), std::move(cats));
  engine.BuildIndexes();
  ASSERT_LT(engine.labeling().Query(0, 4), kInfCost);

  EdgeUpdateSummary summary = engine.RemoveEdge(2, 3);
  EXPECT_TRUE(summary.graph_changed);
  EXPECT_TRUE(summary.labels_changed);
  EXPECT_GE(engine.labeling().Query(0, 4), kInfCost);
  EXPECT_TRUE(engine.labeling().UnpackPath(0, 4).empty());
  ExpectMatchesRebuild(engine);

  // Removing it again is a no-op, as is removing a never-existing arc.
  summary = engine.RemoveEdge(2, 3);
  EXPECT_FALSE(summary.graph_changed);
  summary = engine.RemoveEdge(0, 5);
  EXPECT_FALSE(summary.graph_changed);
  EXPECT_THROW(engine.RemoveEdge(0, 4000), std::invalid_argument);
  EXPECT_THROW(engine.SetEdgeWeight(4000, 0, 1), std::invalid_argument);
  ExpectMatchesRebuild(engine);
}

TEST(DynamicUpdateTest, SetEdgeWeightRoundTripRestoresLabelsExactly) {
  auto inst = testing::MakeRandomInstance(28, 100, 3, 21);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  std::ostringstream before;
  engine.labeling().Serialize(before);

  // Raise a batch of existing arcs, then restore the original weights: the
  // repaired labels must return to the exact original bytes (canonicality
  // is a function of the graph + order only, not of update history).
  // SetEdgeWeight collapses parallel arcs, so operate on unique (u, v)
  // pairs at their effective minimum weight — the only thing labels see.
  std::vector<std::tuple<VertexId, VertexId, Weight>> targets;
  for (auto [u, v, w] : engine.graph().ToEdges()) {
    Cost min_w = engine.graph().ArcWeight(u, v);
    if (static_cast<Cost>(w) == min_w &&
        (targets.empty() || std::get<0>(targets.back()) != u ||
         std::get<1>(targets.back()) != v)) {
      targets.emplace_back(u, v, w);
    }
  }
  for (size_t i = 0; i < targets.size(); i += 7) {
    auto [u, v, w] = targets[i];
    engine.SetEdgeWeight(u, v, w + 50);
  }
  ExpectLabelsCanonical(engine);
  for (size_t i = 0; i < targets.size(); i += 7) {
    auto [u, v, w] = targets[i];
    engine.SetEdgeWeight(u, v, w);
  }
  std::ostringstream after;
  engine.labeling().Serialize(after);
  EXPECT_EQ(before.str(), after.str());
  ExpectMatchesRebuild(engine);
}

TEST(DynamicUpdateTest, NoOpEdgeUpdateLeavesAnswersIdentical) {
  auto inst = testing::MakeRandomInstance(30, 110, 3, 9);
  KosrEngine engine(inst.graph, inst.categories);
  engine.BuildIndexes();
  // Re-adding an existing arc at its current weight must change nothing.
  auto edges = engine.graph().ToEdges();
  auto [u, v, w] = edges.front();
  uint64_t arcs = engine.graph().num_edges();
  engine.AddOrDecreaseEdge(u, v, w);
  engine.AddOrDecreaseEdge(u, v, w + 10);
  EXPECT_EQ(engine.graph().num_edges(), arcs);
  EXPECT_EQ(engine.graph().ArcWeight(u, v), static_cast<Cost>(w));
  ExpectMatchesRebuild(engine);
}

// One random ApplyEdgeUpdates batch mixing the four arc changes a repair
// must handle: a fresh insertion, a decrease and an increase of existing
// arcs, and the deletion of an arc some label entry uses as its parent
// link — so the walk over the hub's old parent tree has to follow an arc
// the updated graph no longer has. `pick_weight` draws insertion weights;
// decreases halve (rounding down, so unit and zero weights reach 0 and
// stay tied) and increases add at least one.
std::vector<EdgeUpdate> RandomMixedBatch(
    const KosrEngine& engine, std::mt19937_64& rng,
    const std::function<Weight(std::mt19937_64&)>& pick_weight) {
  const Graph& graph = engine.graph();
  const HubLabeling& labels = engine.labeling();
  uint32_t n = graph.num_vertices();
  auto edges = graph.ToEdges();
  std::vector<EdgeUpdate> batch;
  for (int attempt = 0; attempt < 16; ++attempt) {  // fresh insertion
    VertexId u = static_cast<VertexId>(rng() % n);
    VertexId v = static_cast<VertexId>(rng() % n);
    if (u != v && graph.ArcWeight(u, v) == kInfCost) {
      batch.push_back({EdgeUpdate::Kind::kAddOrDecrease, u, v,
                       pick_weight(rng)});
      break;
    }
  }
  {  // decrease
    auto [u, v, w] = edges[rng() % edges.size()];
    batch.push_back({EdgeUpdate::Kind::kSet, u, v, w / 2});
  }
  {  // increase
    auto [u, v, w] = edges[rng() % edges.size()];
    batch.push_back(
        {EdgeUpdate::Kind::kSet, u, v, w + 1 + static_cast<Weight>(rng() % 8)});
  }
  for (int attempt = 0; attempt < 16; ++attempt) {  // parent-link deletion
    VertexId x = static_cast<VertexId>(rng() % n);
    bool in_side = rng() % 2 == 0;
    LabelRun run = in_side ? labels.InRun(x) : labels.OutRun(x);
    if (run.size == 0) continue;
    uint32_t i = static_cast<uint32_t>(rng() % run.size);
    VertexId p = run.parent[i];
    if (p == kInvalidVertex) continue;
    // Lin parents precede x on the hub's path (arc p -> x); Lout parents
    // follow it (arc x -> p).
    batch.push_back(in_side ? EdgeUpdate{EdgeUpdate::Kind::kRemove, p, x, 0}
                            : EdgeUpdate{EdgeUpdate::Kind::kRemove, x, p, 0});
    break;
  }
  std::shuffle(batch.begin(), batch.end(), rng);
  return batch;
}

// Applies `batches` random mixed batches, checking the repaired labels
// byte for byte against a from-scratch build after every one.
void RunMixedBatches(KosrEngine& engine, uint64_t seed, int batches,
                     const std::function<Weight(std::mt19937_64&)>& pick) {
  std::mt19937_64 rng(seed);
  for (int b = 0; b < batches; ++b) {
    std::vector<EdgeUpdate> batch = RandomMixedBatch(engine, rng, pick);
    engine.ApplyEdgeUpdates(batch);
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " batch " << b);
    ExpectLabelsCanonical(engine);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

CategoryTable RoundRobinCategories(uint32_t n, uint32_t num_categories) {
  CategoryTable cats(n, num_categories);
  for (VertexId v = 0; v < n; ++v) cats.Add(v, v % num_categories);
  return cats;
}

// The order servebench serves road grids with: recursive separator
// dissection, whose top separators label nearly every vertex.
TEST(DynamicUpdateTest, BatchedStreamsOnDissectionOrderedGridsMatchRebuild) {
  for (uint64_t seed : {4u, 17u}) {
    const uint32_t side = 12;
    KosrEngine engine(MakeGridRoadNetwork(side, side, seed),
                      RoundRobinCategories(side * side, 3));
    engine.BuildIndexes(GridDissectionOrder(side, side),
                        testing::TestThreads());
    RunMixedBatches(engine, seed, 12, [](std::mt19937_64& rng) {
      return static_cast<Weight>(10 + rng() % 91);
    });
  }
}

// Unit weights on a small-world graph: almost every pair has many
// equal-cost shortest paths, so prune ties and canonical parent ties
// dominate the repair.
TEST(DynamicUpdateTest, BatchedStreamsOnUnitWeightSmallWorldMatchRebuild) {
  for (uint64_t seed : {6u, 31u}) {
    const uint32_t n = 120;
    KosrEngine engine(MakeSmallWorld(n, 2, 0.5, seed),
                      RoundRobinCategories(n, 3));
    engine.BuildIndexes(testing::TestThreads());
    RunMixedBatches(engine, seed, 12,
                    [](std::mt19937_64&) { return Weight{1}; });
  }
}

// Zero-weight arcs: equal-distance vertices are then adjacent, the search
// pops them in heap order, and a repair that skips a hub must leave its
// entries exactly as a fresh search would write them.
TEST(DynamicUpdateTest, BatchedStreamsWithZeroWeightArcsMatchRebuild) {
  for (uint64_t seed : {8u, 23u}) {
    const uint32_t n = 60;
    KosrEngine engine(MakeRandomGraph(n, 200, seed, 0, 6),
                      RoundRobinCategories(n, 3));
    engine.BuildIndexes(1);
    RunMixedBatches(engine, seed, 12, [](std::mt19937_64& rng) {
      return static_cast<Weight>(rng() % 3);
    });
  }
}

// The repair re-searches only hubs whose pruned search can diverge from the
// old one, a strict subset of the hubs the updated arc is distance-tight
// for (every one of which a sweep of tightness tests would re-search). The
// scenario is fixed, so the counts repeat exactly.
TEST(DynamicUpdateTest, RepairReSearchesFewerHubsThanAreDistanceTight) {
  if (!obs::Enabled()) GTEST_SKIP() << "engine counters are disabled";
  const uint32_t side = 16;
  Graph graph = MakeGridRoadNetwork(side, side, 5);
  // An arc off the top-level separators, on a few hundred hubs' shortest
  // paths.
  const VertexId u = 3 * side + 2;
  const VertexId v = u + 1;
  const Cost w_old = graph.ArcWeight(u, v);
  ASSERT_LT(w_old, kInfCost);

  // Distance-tight hubs on the old graph, by Dijkstra: forward hubs with
  // dis(h, u) + w == dis(h, v), backward hubs with w + dis(v, h) == dis(u, h).
  uint64_t tight = 0;
  std::vector<Cost> from_u = DijkstraAllDistances(graph, u, /*reverse=*/false);
  std::vector<Cost> from_v = DijkstraAllDistances(graph, v, /*reverse=*/false);
  std::vector<Cost> to_u = DijkstraAllDistances(graph, u, /*reverse=*/true);
  std::vector<Cost> to_v = DijkstraAllDistances(graph, v, /*reverse=*/true);
  for (VertexId h = 0; h < side * side; ++h) {
    if (to_u[h] != kInfCost && to_u[h] + w_old == to_v[h]) ++tight;
    if (from_v[h] != kInfCost && w_old + from_v[h] == from_u[h]) ++tight;
  }
  ASSERT_GT(tight, 0u);

  KosrEngine engine(std::move(graph), RoundRobinCategories(side * side, 3));
  engine.BuildIndexes(GridDissectionOrder(side, side));
  const obs::EngineCounters before = obs::TlsCounters();
  EdgeUpdateSummary summary =
      engine.SetEdgeWeight(u, v, static_cast<Weight>(3 * w_old));
  const obs::EngineCounters delta = obs::Diff(obs::TlsCounters(), before);
  EXPECT_TRUE(summary.labels_changed);
  uint64_t researches = delta.Get(obs::Counter::kRepairResearches);
  EXPECT_GT(researches, 0u);
  EXPECT_LT(researches, tight);
  ExpectLabelsCanonical(engine);
}

}  // namespace
}  // namespace kosr
