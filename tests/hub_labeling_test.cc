#include "src/labeling/hub_labeling.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "src/durability/crc32c.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "tests/test_util.h"

namespace kosr {
namespace {

void ExpectAllPairsMatch(const Graph& graph, const HubLabeling& hl) {
  for (VertexId s = 0; s < graph.num_vertices(); ++s) {
    auto dist = DijkstraAllDistances(graph, s);
    for (VertexId t = 0; t < graph.num_vertices(); ++t) {
      EXPECT_EQ(hl.Query(s, t), dist[t]) << "s=" << s << " t=" << t;
    }
  }
}

TEST(HubLabelingTest, Figure1AllPairs) {
  Figure1 fig = MakeFigure1();
  HubLabeling hl;
  hl.Build(fig.graph);
  ExpectAllPairsMatch(fig.graph, hl);
}

TEST(HubLabelingTest, RandomGraphsAllPairs) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Graph g = MakeRandomGraph(60, 240, seed);
    HubLabeling hl;
    hl.Build(g);
    ExpectAllPairsMatch(g, hl);
  }
}

TEST(HubLabelingTest, GridAllPairsSample) {
  Graph g = MakeGridRoadNetwork(9, 9, /*seed=*/17);
  HubLabeling hl;
  hl.Build(g);
  for (VertexId s = 0; s < g.num_vertices(); s += 7) {
    auto dist = DijkstraAllDistances(g, s);
    for (VertexId t = 0; t < g.num_vertices(); t += 3) {
      EXPECT_EQ(hl.Query(s, t), dist[t]);
    }
  }
}

TEST(HubLabelingTest, SelfDistanceIsZero) {
  Graph g = MakeRandomGraph(30, 100, 9);
  HubLabeling hl;
  hl.Build(g);
  for (VertexId v = 0; v < 30; ++v) EXPECT_EQ(hl.Query(v, v), 0);
}

TEST(HubLabelingTest, UnreachableIsInf) {
  Graph g = Graph::FromEdges(4, {{0, 1, 1}, {2, 3, 1}});
  HubLabeling hl;
  hl.Build(g);
  EXPECT_EQ(hl.Query(0, 2), kInfCost);
  EXPECT_EQ(hl.Query(1, 3), kInfCost);
  EXPECT_EQ(hl.Query(0, 1), 1);
}

TEST(HubLabelingTest, UnpackPathIsValidShortestPath) {
  for (uint64_t seed : {11u, 12u}) {
    Graph g = MakeRandomGraph(50, 220, seed);
    HubLabeling hl;
    hl.Build(g);
    for (VertexId s = 0; s < 50; s += 5) {
      auto dist = DijkstraAllDistances(g, s);
      for (VertexId t = 0; t < 50; t += 3) {
        auto path = hl.UnpackPath(s, t);
        if (dist[t] == kInfCost) {
          EXPECT_TRUE(path.empty());
          continue;
        }
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.front(), s);
        EXPECT_EQ(path.back(), t);
        Cost total = 0;
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          Cost w = g.ArcWeight(path[i], path[i + 1]);
          ASSERT_LT(w, kInfCost)
              << "missing arc " << path[i] << "->" << path[i + 1];
          total += w;
        }
        EXPECT_EQ(total, dist[t]);
      }
    }
  }
}

TEST(HubLabelingTest, UnpackPathSelf) {
  Graph g = MakeRandomGraph(10, 30, 1);
  HubLabeling hl;
  hl.Build(g);
  EXPECT_EQ(hl.UnpackPath(4, 4), std::vector<VertexId>{4});
}

TEST(HubLabelingTest, SerializeRoundTrip) {
  Graph g = MakeRandomGraph(40, 160, 21);
  HubLabeling hl;
  hl.Build(g);
  std::stringstream buffer;
  hl.Serialize(buffer);
  HubLabeling copy = HubLabeling::Deserialize(buffer);
  EXPECT_EQ(copy.num_vertices(), hl.num_vertices());
  for (VertexId s = 0; s < 40; s += 3) {
    for (VertexId t = 0; t < 40; t += 2) {
      EXPECT_EQ(copy.Query(s, t), hl.Query(s, t));
    }
  }
}

TEST(HubLabelingTest, DeserializeRejectsGarbage) {
  std::stringstream buffer("not a labeling");
  EXPECT_THROW(HubLabeling::Deserialize(buffer), std::runtime_error);
}

TEST(HubLabelingTest, CustomOrderStillCorrect) {
  Graph g = MakeRandomGraph(40, 150, 33);
  // Worst-case-ish order: identity.
  std::vector<VertexId> order(40);
  for (VertexId v = 0; v < 40; ++v) order[v] = v;
  HubLabeling hl;
  hl.Build(g, order);
  ExpectAllPairsMatch(g, hl);
}

TEST(HubLabelingTest, RejectsBadOrder) {
  Graph g = MakeRandomGraph(10, 20, 1);
  HubLabeling hl;
  EXPECT_THROW(hl.Build(g, std::vector<VertexId>{0, 1}),
               std::invalid_argument);
}

TEST(HubLabelingTest, IntrospectionIsConsistent) {
  Graph g = MakeRandomGraph(50, 200, 2);
  HubLabeling hl;
  hl.Build(g);
  EXPECT_GT(hl.AvgInLabelSize(), 0.0);
  EXPECT_GT(hl.AvgOutLabelSize(), 0.0);
  EXPECT_GT(hl.IndexBytes(), 0u);
  EXPECT_EQ(hl.IndexBytes() % sizeof(LabelEntry), 0u);
  EXPECT_GE(hl.BuildSeconds(), 0.0);
}

TEST(HubLabelingTest, OnEdgeDecreasedRepairsDistances) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    Graph g = MakeRandomGraph(40, 140, seed);
    HubLabeling hl;
    hl.Build(g);
    // Insert a cheap new arc and repair incrementally.
    auto edges = g.ToEdges();
    VertexId u = 3, v = 29;
    Weight w = 1;
    edges.emplace_back(u, v, w);
    Graph g2 = Graph::FromEdges(40, edges);
    hl.OnEdgeDecreased(g2, u, v, w);
    for (VertexId s = 0; s < 40; s += 3) {
      auto dist = DijkstraAllDistances(g2, s);
      for (VertexId t = 0; t < 40; t += 2) {
        EXPECT_EQ(hl.Query(s, t), dist[t])
            << "seed=" << seed << " s=" << s << " t=" << t;
      }
    }
  }
}

// --- Parallel build equivalence --------------------------------------------

// Byte-for-byte equality of every label entry (rank, dist, parent) — the
// parallel build's contract is identical output, not merely equal distances.
using testing::ExpectSameLabels;

TEST(HubLabelingTest, ParallelBuildIsByteIdenticalToSequential) {
  std::vector<Graph> graphs;
  for (uint64_t seed : {1u, 2u, 3u}) {
    graphs.push_back(MakeRandomGraph(60, 240, seed));
  }
  graphs.push_back(MakeGridRoadNetwork(9, 9, /*seed=*/17));
  for (const Graph& g : graphs) {
    HubLabeling sequential;
    sequential.Build(g, /*num_threads=*/1);
    for (uint32_t threads : {2u, 3u, 8u, testing::TestThreads()}) {
      HubLabeling parallel;
      parallel.Build(g, threads);
      ExpectSameLabels(sequential, parallel);
    }
  }
}

TEST(HubLabelingTest, ParallelBuildCustomOrderMatchesAndIsCorrect) {
  Graph g = MakeRandomGraph(50, 200, 33);
  // Worst-case-ish order (identity): batches pack hubs that barely prune
  // each other, the stress case for the commit-phase re-check.
  std::vector<VertexId> order(50);
  for (VertexId v = 0; v < 50; ++v) order[v] = v;
  HubLabeling sequential;
  sequential.Build(g, order, /*num_threads=*/1);
  HubLabeling parallel;
  parallel.Build(g, order, testing::TestThreads());
  ExpectSameLabels(sequential, parallel);
  ExpectAllPairsMatch(g, parallel);
}

TEST(HubLabelingTest, ParallelDegreeOrderMatchesSequential) {
  // ParallelSort must reproduce std::sort exactly (ties broken by id), even
  // on inputs large enough to take the parallel path.
  Graph g = MakeGridRoadNetwork(150, 150, /*seed=*/3);
  std::vector<VertexId> seq = HubLabeling::DegreeOrder(g, 1);
  std::vector<VertexId> par = HubLabeling::DegreeOrder(g, 5);
  EXPECT_EQ(seq, par);
}

TEST(HubLabelingTest, BuildRejectsNonPermutationOrder) {
  Graph g = MakeRandomGraph(10, 20, 1);
  HubLabeling hl;
  std::vector<VertexId> dup(10, 0);
  EXPECT_THROW(hl.Build(g, dup), std::invalid_argument);
  std::vector<VertexId> oob{0, 1, 2, 3, 4, 5, 6, 7, 8, 42};
  EXPECT_THROW(hl.Build(g, oob), std::invalid_argument);
}

// --- Corrupt snapshot rejection --------------------------------------------

// Hand-crafted snapshot bytes (the Serialize wire format): magic, n, order,
// then 2n length-prefixed label vectors. Lets each test corrupt exactly one
// field.
class SnapshotBuilder {
 public:
  SnapshotBuilder& U32(uint32_t v) { return Append(&v, sizeof(v)); }
  SnapshotBuilder& U64(uint64_t v) { return Append(&v, sizeof(v)); }
  SnapshotBuilder& Magic() { return U64(0x4b4f53524c424c31ull); }
  SnapshotBuilder& Entry(uint32_t rank, uint32_t dist, uint32_t parent) {
    return U32(rank).U32(dist).U32(parent);
  }
  std::string str() const { return bytes_; }

 private:
  SnapshotBuilder& Append(const void* p, size_t len) {
    bytes_.append(static_cast<const char*>(p), len);
    return *this;
  }
  std::string bytes_;
};

HubLabeling DeserializeBytes(const std::string& bytes) {
  std::stringstream in(bytes);
  return HubLabeling::Deserialize(in);
}

// n=2 snapshot with one self-entry per vector — the valid base the corrupt
// variants below mutate.
SnapshotBuilder ValidTinySnapshot() {
  SnapshotBuilder b;
  b.Magic().U32(2).U32(0).U32(1);
  for (int vec = 0; vec < 4; ++vec) {
    b.U64(1).Entry(static_cast<uint32_t>(vec % 2), 0, kInvalidVertex);
  }
  return b;
}

TEST(HubLabelingTest, DeserializeAcceptsValidTinySnapshot) {
  HubLabeling hl = DeserializeBytes(ValidTinySnapshot().str());
  EXPECT_EQ(hl.num_vertices(), 2u);
  EXPECT_EQ(hl.Query(0, 0), 0);
}

TEST(HubLabelingTest, DeserializeRejectsTruncation) {
  std::string valid = ValidTinySnapshot().str();
  // Every proper prefix must be rejected, never read out of bounds (ASan
  // guards the buffers) or loop forever.
  for (size_t len = 0; len < valid.size(); len += 3) {
    EXPECT_THROW(DeserializeBytes(valid.substr(0, len)), std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(HubLabelingTest, DeserializeRejectsBadMagic) {
  std::string bytes = ValidTinySnapshot().str();
  bytes[0] ^= 0x5a;
  EXPECT_THROW(DeserializeBytes(bytes), std::runtime_error);
}

TEST(HubLabelingTest, DeserializeRejectsNonPermutationOrder) {
  // Duplicate rank: order = {1, 1}.
  SnapshotBuilder dup;
  dup.Magic().U32(2).U32(1).U32(1);
  EXPECT_THROW(DeserializeBytes(dup.str()), std::runtime_error);
  // Out of range: order = {0, 7} — would write rank_[7] out of bounds.
  SnapshotBuilder oob;
  oob.Magic().U32(2).U32(0).U32(7);
  EXPECT_THROW(DeserializeBytes(oob.str()), std::runtime_error);
}

TEST(HubLabelingTest, DeserializeRejectsOversizedLabelCount) {
  // Claims 2^60 label entries; must throw before allocating, not after.
  SnapshotBuilder b;
  b.Magic().U32(2).U32(0).U32(1).U64(1ull << 60);
  EXPECT_THROW(DeserializeBytes(b.str()), std::runtime_error);
}

TEST(HubLabelingTest, DeserializeRejectsEntryFieldsOutOfRange) {
  // hub_rank >= n.
  SnapshotBuilder bad_rank;
  bad_rank.Magic().U32(2).U32(0).U32(1).U64(1).Entry(9, 0, kInvalidVertex);
  EXPECT_THROW(DeserializeBytes(bad_rank.str()), std::runtime_error);
  // parent >= n (and not the kInvalidVertex sentinel).
  SnapshotBuilder bad_parent;
  bad_parent.Magic().U32(2).U32(0).U32(1).U64(1).Entry(0, 0, 9);
  EXPECT_THROW(DeserializeBytes(bad_parent.str()), std::runtime_error);
  // Duplicate rank within a vector (not strictly sorted).
  SnapshotBuilder bad_sort;
  bad_sort.Magic().U32(2).U32(0).U32(1).U64(2).Entry(0, 0, kInvalidVertex)
      .Entry(0, 1, 1);
  EXPECT_THROW(DeserializeBytes(bad_sort.str()), std::runtime_error);
}

TEST(HubLabelingTest, DeserializeRejectsBrokenParentChains) {
  // Field-wise valid snapshots whose parent pointers cannot be walked: these
  // used to pass validation and then crash (dangling) or hang (cycle)
  // UnpackPath inside a serve worker.
  auto base = [](SnapshotBuilder& b) { b.Magic().U32(2).U32(0).U32(1); };
  {  // Dangling: vertex 1's parent 0 has no Lin entry for hub rank 0.
    SnapshotBuilder b;
    base(b);
    b.U64(0);                                 // Lin(0) empty
    b.U64(1).Entry(0, 3, 0);                  // Lin(1): parent 0, no entry
    b.U64(1).Entry(0, 0, kInvalidVertex);     // Lout(0)
    b.U64(1).Entry(1, 0, kInvalidVertex);     // Lout(1)
    EXPECT_THROW(DeserializeBytes(b.str()), std::runtime_error);
  }
  {  // Non-decreasing chain (the 2-cycle shape): both claim dist 5.
    SnapshotBuilder b;
    base(b);
    b.U64(2).Entry(0, 0, kInvalidVertex).Entry(1, 5, 1);  // Lin(0)
    b.U64(2).Entry(0, 5, 0).Entry(1, 0, kInvalidVertex);  // Lin(1)
    // Lin(0)'s rank-1 entry points at 1 whose rank-1 dist is 0 < 5 (fine),
    // but Lin(1)'s rank-0 entry points at 0 whose rank-0 dist is 0 < 5 too —
    // make it circular instead: 0's rank-1 parent 1 (dist 5) and 1's rank-1
    // is the hub self-entry, so craft the cycle on rank 0 of a 3rd vertex.
    b.U64(1).Entry(0, 0, kInvalidVertex);     // Lout(0)
    b.U64(1).Entry(1, 0, kInvalidVertex);     // Lout(1)
    EXPECT_NO_THROW(DeserializeBytes(b.str()));  // this one is walkable
    SnapshotBuilder cyc;
    cyc.Magic().U32(3).U32(0).U32(1).U32(2);
    cyc.U64(1).Entry(0, 0, kInvalidVertex);          // Lin(0) hub self
    cyc.U64(1).Entry(0, 5, 2);                       // Lin(1) -> 2
    cyc.U64(1).Entry(0, 5, 1);                       // Lin(2) -> 1 (cycle)
    cyc.U64(1).Entry(0, 0, kInvalidVertex);          // Lout(0)
    cyc.U64(1).Entry(1, 0, kInvalidVertex);          // Lout(1)
    cyc.U64(1).Entry(2, 0, kInvalidVertex);          // Lout(2)
    EXPECT_THROW(DeserializeBytes(cyc.str()), std::runtime_error);
  }
  {  // Parentless entry that is not the hub's self-entry.
    SnapshotBuilder b;
    base(b);
    b.U64(1).Entry(0, 0, kInvalidVertex);            // Lin(0)
    b.U64(1).Entry(0, 4, kInvalidVertex);            // Lin(1): not hub 0
    b.U64(1).Entry(0, 0, kInvalidVertex);            // Lout(0)
    b.U64(1).Entry(1, 0, kInvalidVertex);            // Lout(1)
    EXPECT_THROW(DeserializeBytes(b.str()), std::runtime_error);
  }
}

TEST(HubLabelingTest, UnpackPathSurvivesBrokenParentsFromParts) {
  // FromParts intentionally skips the parent-chain closure check (partial
  // disk-resident working sets lack the chain links), so UnpackPath must
  // stay defensive: a broken or circular chain yields an empty path instead
  // of a null dereference or an unbounded walk.
  std::vector<std::vector<LabelEntry>> in(2), out(2);
  out[0] = {{1, 5, 0}};                 // 0's parent toward hub 1 is... 0.
  in[1] = {{1, 0, kInvalidVertex}};     // hub 1 self-entry
  HubLabeling hl = HubLabeling::FromParts({0, 1}, in, out);
  EXPECT_EQ(hl.Query(0, 1), 5);         // the labels still answer queries
  EXPECT_TRUE(hl.UnpackPath(0, 1).empty());
}

TEST(HubLabelingTest, SerializeRoundTripSurvivesValidation) {
  // A real labeling must of course still round-trip through the hardened
  // deserializer, including after a parallel build.
  Graph g = MakeGridRoadNetwork(8, 8, 5);
  HubLabeling hl;
  hl.Build(g, testing::TestThreads());
  std::stringstream buffer;
  hl.Serialize(buffer);
  HubLabeling copy = HubLabeling::Deserialize(buffer);
  ExpectSameLabels(hl, copy);
}

TEST(HubLabelingTest, FromPartsRejectsMalformedInput) {
  std::vector<VertexId> order{0, 1, 2};
  std::vector<std::vector<LabelEntry>> empty3(3);
  // Non-permutation order.
  EXPECT_THROW(HubLabeling::FromParts({0, 0, 2}, empty3, empty3),
               std::runtime_error);
  // Label table sized differently from the order.
  EXPECT_THROW(
      HubLabeling::FromParts(order, empty3,
                             std::vector<std::vector<LabelEntry>>(2)),
      std::runtime_error);
  // Entry with out-of-range rank.
  auto bad = empty3;
  bad[1].push_back({7, 1, kInvalidVertex});
  EXPECT_THROW(HubLabeling::FromParts(order, bad, empty3),
               std::runtime_error);
}

TEST(HubLabelingTest, FromPartsPartialAnswersLoadedPairs) {
  Graph g = MakeRandomGraph(30, 120, 44);
  HubLabeling full;
  full.Build(g);
  std::vector<VertexId> order;
  for (uint32_t r = 0; r < 30; ++r) order.push_back(full.HubVertex(r));
  std::vector<std::vector<LabelEntry>> in(30), out(30);
  // Load only vertex 5's out-label and vertex 9's in-label.
  out[5] = testing::RunEntries(full.OutRun(5));
  in[9] = testing::RunEntries(full.InRun(9));
  HubLabeling partial = HubLabeling::FromParts(order, in, out);
  EXPECT_EQ(partial.Query(5, 9), full.Query(5, 9));
  EXPECT_EQ(partial.Query(9, 5), kInfCost);  // not loaded
}

// --- Snapshot format golden bytes --------------------------------------------

// Size and CRC32C of the Serialize bytes of a 1-thread degree-order Build
// (and, since the parallel build is byte-identical, of every thread count).
// These pin the snapshot format — checkpoints, `--indexes` files and disk
// stores written by one version must load in the next — independently of
// how the labels are held in memory.
std::pair<size_t, uint32_t> SnapshotFingerprint(const Graph& g,
                                                uint32_t threads) {
  HubLabeling hl;
  hl.Build(g, threads);
  std::ostringstream out;
  hl.Serialize(out);
  std::string bytes = out.str();
  return {bytes.size(), durability::Crc32c(bytes.data(), bytes.size())};
}

// A directed 7x9 grid whose weights come from integer arithmetic alone, so
// the graph (unlike MakeGridRoadNetwork's std::uniform_int_distribution
// draws) is the same under every standard library.
Graph ArithmeticGrid() {
  constexpr uint32_t kRows = 7, kCols = 9;
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  auto id = [](uint32_t r, uint32_t c) { return r * kCols + c; };
  for (uint32_t r = 0; r < kRows; ++r) {
    for (uint32_t c = 0; c < kCols; ++c) {
      VertexId v = id(r, c);
      if (c + 1 < kCols) {
        edges.emplace_back(v, id(r, c + 1), 1 + (3 * r + 5 * c) % 7);
        edges.emplace_back(id(r, c + 1), v, 1 + (7 * r + 2 * c) % 5);
      }
      if (r + 1 < kRows) {
        edges.emplace_back(v, id(r + 1, c), 2 + (r * c + 4) % 6);
        edges.emplace_back(id(r + 1, c), v, 1 + (5 * r + 3 * c + 1) % 8);
      }
    }
  }
  return Graph::FromEdges(kRows * kCols, edges);
}

TEST(HubLabelingTest, SnapshotGoldenBytes) {
  for (uint32_t threads : {1u, 4u}) {
    auto figure1 = SnapshotFingerprint(MakeFigure1().graph, threads);
    EXPECT_EQ(figure1.first, 772u) << "threads=" << threads;
    EXPECT_EQ(figure1.second, 0x80f6126eu) << "threads=" << threads;
    auto grid = SnapshotFingerprint(ArithmeticGrid(), threads);
    EXPECT_EQ(grid.first, 25272u) << "threads=" << threads;
    EXPECT_EQ(grid.second, 0x14fa7c81u) << "threads=" << threads;
  }
}

// --- Seeded mutation of snapshot input ---------------------------------------

// Everything a loaded labeling can be asked: every pair's Query and
// UnpackPath. Under ASan/UBSan an out-of-bounds read fails the test by
// itself; the path checks catch a walk that leaves the vertex range or
// outgrows a simple path.
void ExpectAllPairsInBounds(const HubLabeling& hl) {
  uint32_t n = hl.num_vertices();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      hl.Query(s, t);
      std::vector<VertexId> path = hl.UnpackPath(s, t);
      ASSERT_LE(path.size(), 2 * static_cast<size_t>(n)) << s << "->" << t;
      for (VertexId x : path) ASSERT_LT(x, n) << s << "->" << t;
    }
  }
}

// Flips, truncates and extends the bytes of a valid snapshot with a fixed
// seed: each case must either be rejected with std::runtime_error or load
// into a labeling that stays in bounds. This guards the per-run validation
// (rank range, strict rank order, parent range) and the decreasing
// parent-chain check.
TEST(HubLabelingTest, MutatedSnapshotsThrowOrStayInBounds) {
  Graph g = MakeGridRoadNetwork(4, 4, 3);
  HubLabeling hl;
  hl.Build(g);
  std::ostringstream out;
  hl.Serialize(out);
  const std::string valid = out.str();
  const uint32_t n = hl.num_vertices();
  std::mt19937_64 rng(0x6b6f7372);
  auto pos = [&](size_t size) { return static_cast<size_t>(rng() % size); };
  uint32_t accepted = 0, rejected = 0;
  for (uint32_t iter = 0; iter < 3000; ++iter) {
    std::string bytes = valid;
    switch (iter % 3) {
      case 0:  // flip 1-4 bytes
        for (uint64_t k = 1 + rng() % 4; k > 0; --k) {
          bytes[pos(bytes.size())] ^= static_cast<char>(1 + rng() % 255);
        }
        break;
      case 1:  // truncate
        bytes.resize(pos(bytes.size()));
        break;
      default:  // extend: splice 1-16 random bytes in anywhere
        std::string junk(1 + rng() % 16, '\0');
        for (char& c : junk) c = static_cast<char>(rng());
        bytes.insert(pos(bytes.size() + 1), junk);
        break;
    }
    std::stringstream in(bytes);
    std::optional<HubLabeling> loaded;
    try {
      // As LoadIndexes does: the graph fixes the vertex count.
      loaded = HubLabeling::Deserialize(in, n);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_NO_FATAL_FAILURE(ExpectAllPairsInBounds(*loaded)) << "case " << iter;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// The same for FromParts, which skips the parent-chain check (a disk-store
// working set lacks the chain links): random field overwrites, inserted and
// deleted entries must throw or leave every query and unpack in bounds.
TEST(HubLabelingTest, MutatedPartsThrowOrStayInBounds) {
  Graph g = MakeGridRoadNetwork(4, 4, 3);
  HubLabeling hl;
  hl.Build(g);
  const uint32_t n = hl.num_vertices();
  std::vector<std::vector<LabelEntry>> in(n), out(n);
  for (VertexId v = 0; v < n; ++v) {
    in[v] = testing::RunEntries(hl.InRun(v));
    out[v] = testing::RunEntries(hl.OutRun(v));
  }
  std::mt19937_64 rng(0x70617274);
  auto value = [&]() -> uint32_t {
    switch (rng() % 3) {
      case 0: return static_cast<uint32_t>(rng() % (n + 2));
      case 1: return kInvalidVertex;
      default: return static_cast<uint32_t>(rng());
    }
  };
  uint32_t accepted = 0, rejected = 0;
  for (uint32_t iter = 0; iter < 3000; ++iter) {
    auto mutated_in = in, mutated_out = out;
    auto& labels = (rng() % 2 ? mutated_in : mutated_out)[rng() % n];
    if (iter % 3 == 2 || labels.empty()) {
      labels.insert(labels.begin() + rng() % (labels.size() + 1),
                    LabelEntry{value(), value(), value()});
    } else if (iter % 3 == 1) {
      labels.erase(labels.begin() + rng() % labels.size());
    } else {
      LabelEntry& e = labels[rng() % labels.size()];
      uint32_t* field[] = {&e.hub_rank, &e.dist, &e.parent};
      *field[rng() % 3] = value();
    }
    std::optional<HubLabeling> loaded;
    try {
      loaded = HubLabeling::FromParts(testing::HubOrder(hl), mutated_in,
                                      mutated_out);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_NO_FATAL_FAILURE(ExpectAllPairsInBounds(*loaded)) << "case " << iter;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace kosr
