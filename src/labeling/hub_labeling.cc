#include "src/labeling/hub_labeling.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/obs/counters.h"
#include "src/util/min_heap.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace kosr {
namespace {

// Inserts or updates an entry, keeping the buffer sorted by rank.
void InsertOrUpdate(std::vector<LabelEntry>& labels, const LabelEntry& entry) {
  if (labels.empty() || labels.back().hub_rank < entry.hub_rank) {
    labels.push_back(entry);
    return;
  }
  auto it = std::lower_bound(labels.begin(), labels.end(), entry.hub_rank,
                             [](const LabelEntry& e, uint32_t r) {
                               return e.hub_rank < r;
                             });
  if (it != labels.end() && it->hub_rank == entry.hub_rank) {
    if (entry.dist < it->dist) *it = entry;
    return;
  }
  labels.insert(it, entry);
}

// Whether an edit buffer holds exactly the entries of a sealed run.
bool RunEquals(const LabelRun& run, const std::vector<LabelEntry>& labels) {
  if (run.size != labels.size()) return false;
  for (uint32_t i = 0; i < run.size; ++i) {
    if (run.key[i] != PackLabelKey(labels[i].hub_rank, labels[i].dist) ||
        run.parent[i] != labels[i].parent) {
      return false;
    }
  }
  return true;
}

bool IsPermutation(const std::vector<VertexId>& order, uint32_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (VertexId v : order) {
    if (v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

// Snapshot validation shared by Deserialize and FromParts, run on each run
// as soon as it is sealed: every field of a label entry is
// attacker-controlled until proven otherwise.
void ValidateRun(const LabelRun& run, uint32_t n, const char* what) {
  for (uint32_t i = 0; i < run.size; ++i) {
    if (run.RankAt(i) >= n) {
      throw std::runtime_error(std::string(what) + ": hub rank out of range");
    }
    if (i > 0 && run.RankAt(i) <= run.RankAt(i - 1)) {
      throw std::runtime_error(std::string(what) +
                               ": label vector not strictly rank-sorted");
    }
    if (run.parent[i] != kInvalidVertex && run.parent[i] >= n) {
      throw std::runtime_error(std::string(what) + ": parent out of range");
    }
  }
}

}  // namespace

// One (vertex, dist, parent) produced by a batched search, pending the
// commit-phase prune re-check.
struct HubLabeling::CandidateLabel {
  VertexId vertex;
  uint32_t dist;
  VertexId parent;
};

// Per-vertex edit buffers of one label side: the mutable working copy of
// the runs a build or repair writes. A buffer opens as a copy of the
// vertex's sealed run; readers see the open buffer where there is one and
// the sealed run everywhere else, and since a run is never resealed while
// its buffer is open, the run is the pre-edit state SealEdits diffs against.
struct HubLabeling::EditSide {
  std::vector<std::vector<LabelEntry>> bufs;  ///< By vertex, where open.
  std::vector<uint8_t> open;

  explicit EditSide(uint32_t n) : bufs(n), open(n, 0) {}

  const std::vector<LabelEntry>* Find(VertexId v) const {
    return open[v] ? &bufs[v] : nullptr;
  }

  std::vector<LabelEntry>& Open(VertexId v, const FlatSide& flat) {
    std::vector<LabelEntry>& buf = bufs[v];
    if (!open[v]) {
      open[v] = 1;
      LabelRun run = flat.Run(v);
      buf.reserve(run.size);
      for (uint32_t i = 0; i < run.size; ++i) {
        buf.push_back({run.RankAt(i), run.DistAt(i), run.parent[i]});
      }
    }
    return buf;
  }
};

// Both sides' edit buffers; `in` holds Lin edits (written by forward
// searches), `out` Lout edits.
struct HubLabeling::LabelEdits {
  EditSide in;
  EditSide out;

  explicit LabelEdits(uint32_t n) : in(n), out(n) {}
  EditSide& Side(bool in_side) { return in_side ? in : out; }
  const EditSide& Side(bool in_side) const { return in_side ? in : out; }
};

// Per-thread pruned-Dijkstra scratch. dist/parent are dense arrays reset via
// the touched list (cheap for small search spaces); scratch is the dense
// distance table keyed by hub rank holding the current hub's opposite-side
// labels during prune checks.
struct HubLabeling::SearchContext {
  std::vector<Cost> dist;
  std::vector<VertexId> parent;
  std::vector<VertexId> touched;
  IndexedMinHeap heap;
  std::vector<Cost> scratch;
  std::vector<uint32_t> scratch_touched;

  explicit SearchContext(uint32_t n)
      : dist(n, kInfCost),
        parent(n, kInvalidVertex),
        heap(n),
        scratch(n, kInfCost) {}
};

void HubLabeling::FlatSide::Reset(uint32_t n) {
  // Slot 0 is one shared sentinel block that every empty run points at —
  // a disk-store working set (FromParts) is almost entirely empty runs,
  // and paying kRunPadding slots for each of those would triple its
  // footprint for no information.
  runs.assign(n, RunRef{0, 0});
  key.assign(kRunPadding, kSentinelKey);
  parent.assign(kRunPadding, kInvalidVertex);
  garbage = 0;
}

void HubLabeling::FlatSide::Compact() {
  uint64_t total = kRunPadding;
  for (const RunRef& r : runs) {
    if (r.len > 0) total += r.len + kRunPadding;
  }
  std::vector<uint64_t> new_key;
  std::vector<VertexId> new_parent;
  new_key.reserve(total);
  new_parent.reserve(total);
  new_key.assign(kRunPadding, kSentinelKey);
  new_parent.assign(kRunPadding, kInvalidVertex);
  for (RunRef& r : runs) {
    if (r.len == 0) continue;
    // Each run carries its own sentinel padding; copy it along.
    uint64_t start = new_key.size();
    new_key.insert(new_key.end(), key.begin() + r.start,
                   key.begin() + r.start + r.len + kRunPadding);
    new_parent.insert(new_parent.end(), parent.begin() + r.start,
                      parent.begin() + r.start + r.len + kRunPadding);
    r.start = start;
  }
  key = std::move(new_key);
  parent = std::move(new_parent);
  garbage = 0;
}

void HubLabeling::FlatSide::ResealRun(VertexId v,
                                      std::span<const LabelEntry> labels) {
  uint32_t old_len = runs[v].len;
  uint32_t new_len = static_cast<uint32_t>(labels.size());
  // Runs at slot 0 are views of the shared empty block (never owned), so
  // they have nothing to overwrite and nothing to turn into garbage.
  const bool shared_empty = runs[v].start == 0;
  if (new_len == 0) {
    // An emptied run (a deletion disconnected the vertex from every hub
    // that labeled it): repoint at the shared block, abandoning any owned
    // slot.
    if (!shared_empty) {
      garbage += old_len + kRunPadding;
      runs[v].start = 0;
    }
    runs[v].len = 0;
    return;
  }
  uint64_t s;
  if (!shared_empty && new_len <= old_len) {
    // Overwrite in place; the sentinel padding moves up and any slack
    // between the new padding and the old slot end becomes garbage
    // (increase/deletion repairs shrink runs whose hubs lost coverage).
    s = runs[v].start;
    garbage += old_len - new_len;
  } else {
    // The run grew past its slot (or out of the shared empty block):
    // append a fresh run at the tail and abandon any owned old slot.
    if (!shared_empty) garbage += old_len + kRunPadding;
    s = key.size();
    runs[v].start = s;
    key.resize(s + new_len + kRunPadding);
    parent.resize(s + new_len + kRunPadding);
  }
  for (uint32_t i = 0; i < new_len; ++i) {
    key[s + i] = PackLabelKey(labels[i].hub_rank, labels[i].dist);
    parent[s + i] = labels[i].parent;
  }
  for (uint32_t p = 0; p < kRunPadding; ++p) {
    key[s + new_len + p] = kSentinelKey;
    parent[s + new_len + p] = kInvalidVertex;
  }
  runs[v].len = new_len;
}

uint64_t HubLabeling::FlatSide::Entries() const {
  uint64_t total = 0;
  for (const RunRef& r : runs) total += r.len;
  return total;
}

uint64_t HubLabeling::FlatSide::Bytes() const {
  return key.size() * (sizeof(uint64_t) + sizeof(VertexId)) +
         runs.size() * sizeof(RunRef);
}

std::vector<VertexId> HubLabeling::SealEdits(
    FlatSide& side, EditSide& edits,
    std::vector<std::vector<uint64_t>>* old_keys) {
  // Room for the runs ResealRun will append at the tail (those that
  // outgrow their slot or leave the shared empty block), grown
  // geometrically as push_back would — but never past what is needed when
  // that is more, so a build's seal lands in arrays of exactly its size.
  uint64_t tail = 0;
  for (VertexId v = 0; v < edits.bufs.size(); ++v) {
    uint64_t len = edits.bufs[v].size();
    const FlatSide::RunRef& r = side.runs[v];
    if (edits.open[v] && len > 0 && (r.start == 0 || len > r.len)) {
      tail += len + kRunPadding;
    }
  }
  if (side.key.size() + tail > side.key.capacity()) {
    uint64_t cap = std::max(side.key.size() + tail, 2 * side.key.size());
    side.key.reserve(cap);
    side.parent.reserve(cap);
  }
  std::vector<VertexId> changed;
  for (VertexId v = 0; v < edits.bufs.size(); ++v) {
    if (!edits.open[v]) continue;
    std::vector<LabelEntry>& buf = edits.bufs[v];
    LabelRun run = side.Run(v);
    if (!RunEquals(run, buf)) {
      changed.push_back(v);
      if (old_keys != nullptr) {
        auto keys = run.Keys();
        old_keys->emplace_back(keys.begin(), keys.end());
      }
      side.ResealRun(v, buf);
    }
    std::vector<LabelEntry>().swap(buf);  // sealed: drop the copy now
  }
  // Compact once a quarter of the slots are dead — keeps the arrays within
  // a constant factor of the live size under sustained update streams.
  if (side.garbage * 4 > side.key.size()) side.Compact();
  return changed;
}

uint64_t HubLabeling::FlatBytes() const {
  return flat_in_.Bytes() + flat_out_.Bytes();
}

std::vector<VertexId> HubLabeling::DegreeOrder(const Graph& graph,
                                               uint32_t num_threads) {
  uint32_t n = graph.num_vertices();
  // Precompute the keys once: the comparator runs O(n log n) times and the
  // degree lookups are two indirections each.
  std::vector<uint64_t> key(n);
  constexpr uint32_t kChunk = 4096;
  uint64_t chunks = (static_cast<uint64_t>(n) + kChunk - 1) / kChunk;
  ParallelForEachIndex(num_threads, chunks, [&](uint64_t c) {
    uint32_t lo = static_cast<uint32_t>(c * kChunk);
    uint32_t hi = std::min(n, lo + kChunk);
    for (VertexId v = lo; v < hi; ++v) {
      key[v] = static_cast<uint64_t>(graph.InDegree(v) + 1) *
               (graph.OutDegree(v) + 1);
    }
  });
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[v] = v;
  ParallelSort(
      order,
      [&](VertexId a, VertexId b) {
        return key[a] != key[b] ? key[a] > key[b] : a < b;
      },
      num_threads);
  return order;
}

void HubLabeling::Build(const Graph& graph, uint32_t num_threads) {
  Build(graph, DegreeOrder(graph, num_threads), num_threads);
}

void HubLabeling::Build(const Graph& graph, const std::vector<VertexId>& order,
                        uint32_t num_threads) {
  uint32_t n = graph.num_vertices();
  if (!IsPermutation(order, n)) {
    throw std::invalid_argument("order must be a permutation of the vertices");
  }
  WallTimer timer;
  order_ = order;
  rank_.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) rank_[order_[r]] = r;
  // All runs start empty; the build writes only into edit buffers, opened
  // on each vertex's first entry, and seals them once at the end.
  flat_in_.Reset(n);
  flat_out_.Reset(n);
  LabelEdits edits(n);

  num_threads = ResolveThreadCount(num_threads);
  if (num_threads == 1) {
    // Sequential fast path: labels commit directly during the search (the
    // prune there already runs against the fully committed prefix), so the
    // batched commit re-check would be pure duplicated work.
    SearchContext ctx(n);
    for (uint32_t r = 0; r < n; ++r) {
      PrunedSearch(graph, r, /*forward=*/true, ctx, edits, nullptr);
      PrunedSearch(graph, r, /*forward=*/false, ctx, edits, nullptr);
    }
  } else {
    BuildBatched(graph, num_threads, edits);
  }
  SealEdits(flat_in_, edits.in, nullptr);
  SealEdits(flat_out_, edits.out, nullptr);
  build_seconds_ = timer.ElapsedSeconds();
}

void HubLabeling::BuildBatched(const Graph& graph, uint32_t num_threads,
                               LabelEdits& edits) {
  const uint32_t n = num_vertices();

  // One persistent pool for the whole build: the batch loop below issues
  // one parallel-for per batch (hundreds per index), and respawning threads
  // each time dominated small-batch wall time.
  ThreadPool pool(num_threads);
  num_threads = pool.num_threads();
  std::vector<std::unique_ptr<SearchContext>> contexts;
  contexts.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    contexts.push_back(std::make_unique<SearchContext>(n));
  }

  // Rank-batched construction. Threads run pruned searches for every hub of
  // the batch against the labels committed by *earlier* batches only (the
  // edit buffers are never written while searches run, so sharing them is
  // race-free); the weaker prune admits extra candidates, and the sequential
  // commit phase below re-checks each one in rank order against the labels
  // committed so far — including same-batch smaller ranks — so exactly the
  // canonical (sequential) label set survives. Batches start at size 1
  // because the top hubs have the largest searches and their labels prune
  // everything after them; the cap keeps all threads busy on the long tail
  // of small searches.
  //
  // Concurrency contract (DESIGN.md, "Concurrency contract"): this build
  // deliberately owns no lock. Each task writes only its own disjoint
  // candidates[task] slot, the shared edit buffers are read-only while
  // searches run, and ParallelFor's internal mutex is the barrier whose
  // release/acquire ordering publishes each batch's committed labels to
  // the next batch's searches. Adding shared mutable state here means
  // adding a capability-annotated Mutex, not an atomic sprinkled in.
  const uint32_t batch_cap = std::max<uint32_t>(8 * num_threads, 64);
  std::vector<std::vector<CandidateLabel>> candidates;
  uint32_t batch_size = 1;
  for (uint32_t begin = 0; begin < n; begin += batch_size,
                batch_size = std::min(batch_size * 2, batch_cap)) {
    batch_size = std::min(batch_size, n - begin);
    const uint32_t tasks = 2 * batch_size;  // (rank, direction) pairs
    candidates.assign(tasks, {});
    pool.ParallelFor(tasks, [&](uint64_t task, uint32_t thread) {
      uint32_t rank = begin + static_cast<uint32_t>(task) / 2;
      bool forward = task % 2 == 0;
      PrunedSearch(graph, rank, forward, *contexts[thread], edits,
                   &candidates[task]);
    });
    // Commit in rank order, forward before backward — the same order the
    // sequential build writes labels in.
    for (uint32_t i = 0; i < batch_size; ++i) {
      CommitCandidates(begin + i, /*forward=*/true, candidates[2 * i],
                       *contexts[0], edits);
      CommitCandidates(begin + i, /*forward=*/false, candidates[2 * i + 1],
                       *contexts[0], edits);
    }
  }
}

// Both prune helpers read a vertex's open edit buffer if it has one and its
// sealed run otherwise, stopping at the first rank >= `rank`; on a run the
// sentinel's rank exceeds every real one, so the scan stops in-run.

void HubLabeling::LoadHubScratch(uint32_t rank, bool forward,
                                 const LabelEdits& edits,
                                 SearchContext& ctx) const {
  // The hub's own opposite-side labels (ranks < `rank`) go into the dense
  // scratch table: query(hub, x) (forward) is then a scan of Lin(x).
  VertexId hub = order_[rank];
  auto load = [&](uint32_t r, uint32_t d) {
    ctx.scratch[r] = d;
    ctx.scratch_touched.push_back(r);
  };
  if (const std::vector<LabelEntry>* buf = edits.Side(!forward).Find(hub)) {
    for (const LabelEntry& e : *buf) {
      if (e.hub_rank >= rank) break;
      load(e.hub_rank, e.dist);
    }
    return;
  }
  const FlatSide& flat = forward ? flat_out_ : flat_in_;
  for (const uint64_t* k = flat.Run(hub).key; (*k >> 32) < rank; ++k) {
    load(static_cast<uint32_t>(*k >> 32), static_cast<uint32_t>(*k));
  }
}

Cost HubLabeling::Covered(uint32_t rank, bool forward, VertexId x,
                          const LabelEdits& edits,
                          const SearchContext& ctx) const {
  // Hubs of strictly smaller rank certify dis(hub, x) (forward) through
  // x's Lin and the hub's Lout loaded into scratch. The hottest loop of a
  // build: the accumulator stays a local so it lives in a register.
  const Cost* scratch = ctx.scratch.data();
  Cost covered = kInfCost;
  if (const std::vector<LabelEntry>* buf = edits.Side(forward).Find(x)) {
    for (const LabelEntry& e : *buf) {
      if (e.hub_rank >= rank) break;
      Cost via = scratch[e.hub_rank];
      if (via != kInfCost) covered = std::min(covered, via + e.dist);
    }
    return covered;
  }
  const FlatSide& flat = forward ? flat_in_ : flat_out_;
  for (const uint64_t* k = flat.Run(x).key; (*k >> 32) < rank; ++k) {
    Cost via = scratch[*k >> 32];
    if (via != kInfCost) {
      covered = std::min(covered, via + static_cast<uint32_t>(*k));
    }
  }
  return covered;
}

void HubLabeling::PrunedSearch(const Graph& graph, uint32_t rank, bool forward,
                               SearchContext& ctx, LabelEdits& edits,
                               std::vector<CandidateLabel>* candidates) const {
  LoadHubScratch(rank, forward, edits, ctx);

  auto& dist = ctx.dist;
  auto& parent = ctx.parent;
  auto& touched = ctx.touched;
  auto& heap = ctx.heap;

  VertexId hub = order_[rank];
  touched.push_back(hub);
  dist[hub] = 0;
  heap.InsertOrDecrease(hub, 0);

  // Relaxations accumulate in a register and hit the thread-local slot once
  // per search, after the heap drains.
  uint64_t relaxations = 0;
  while (!heap.Empty()) {
    auto [d, x] = heap.ExtractMin();
    // Prune if hubs of strictly smaller rank already certify dis <= d.
    if (Covered(rank, forward, x, edits, ctx) <= d) continue;

    if (candidates != nullptr) {
      candidates->push_back({x, static_cast<uint32_t>(d), parent[x]});
    } else {
      InsertOrUpdate(
          edits.Side(forward).Open(x, forward ? flat_in_ : flat_out_),
          {rank, static_cast<uint32_t>(d), parent[x]});
    }

    auto arcs = forward ? graph.OutArcs(x) : graph.InArcs(x);
    for (const Arc& a : arcs) {
      ++relaxations;
      Cost nd = d + a.weight;
      if (nd < dist[a.head]) {
        if (dist[a.head] == kInfCost) touched.push_back(a.head);
        dist[a.head] = nd;
        parent[a.head] = x;
        heap.InsertOrDecrease(a.head, nd);
      } else if (nd == dist[a.head] && x < parent[a.head]) {
        // Canonical tie-break: among equal-cost predecessors keep the
        // smallest id. This makes the Dijkstra tree — and thus the stored
        // parent pointers — independent of exploration order, which is what
        // lets the batched parallel build reproduce the sequential labels
        // byte for byte (batched searches explore more than sequential ones
        // and would otherwise pick different shortest-path ties).
        parent[a.head] = x;
      }
    }
  }

  KOSR_COUNT(kPrunedRelaxations, relaxations);

  for (VertexId v : touched) {
    dist[v] = kInfCost;
    parent[v] = kInvalidVertex;
  }
  touched.clear();
  heap.Clear();
  for (uint32_t r : ctx.scratch_touched) ctx.scratch[r] = kInfCost;
  ctx.scratch_touched.clear();
}

void HubLabeling::CommitCandidates(
    uint32_t rank, bool forward, const std::vector<CandidateLabel>& candidates,
    SearchContext& ctx, LabelEdits& edits) const {
  // Same scratch layout as the search-time prune, but now over the fully
  // committed prefix: same-batch hubs of smaller rank are in by now.
  LoadHubScratch(rank, forward, edits, ctx);
  for (const CandidateLabel& c : candidates) {
    if (Covered(rank, forward, c.vertex, edits, ctx) <=
        static_cast<Cost>(c.dist)) {
      continue;
    }
    InsertOrUpdate(
        edits.Side(forward).Open(c.vertex, forward ? flat_in_ : flat_out_),
        {rank, c.dist, c.parent});
  }
  for (uint32_t r : ctx.scratch_touched) ctx.scratch[r] = kInfCost;
  ctx.scratch_touched.clear();
}

namespace {

// Intersects a much shorter run against a much longer one by binary search
// instead of stepping the long run entry by entry. Matches are visited in
// increasing rank order with a strict improvement test, so the witnessing
// hub is identical to the merge-join's. The `lo` cursor only moves forward:
// both runs are rank-sorted, so earlier positions can never match again.
inline void GallopIntersect(const LabelRun& small, const LabelRun& big,
                            Cost& best, uint32_t& best_rank) {
  const uint64_t* lo = big.key;
  const uint64_t* end = big.key + big.size;
  // Probes accumulate in a register and hit the thread-local slot once per
  // intersection, never inside the loop.
  uint64_t probes = 0;
  for (uint32_t i = 0; i < small.size; ++i) {
    uint32_t r = small.RankAt(i);
    // First key with rank >= r (keys are rank-major packed).
    lo = std::lower_bound(lo, end, PackLabelKey(r, 0));
    ++probes;
    if (lo == end) break;
    if (static_cast<uint32_t>(*lo >> 32) == r) {
      Cost d = static_cast<Cost>(small.DistAt(i)) +
               static_cast<uint32_t>(*lo);
      if (d < best) {
        best = d;
        best_rank = r;
      }
    }
  }
  KOSR_COUNT(kGallopProbes, probes);
}

}  // namespace

Cost HubLabeling::QueryGallop(const LabelRun& a, const LabelRun& b,
                              uint32_t& best_rank) const {
  Cost best = kInfCost;
  if (a.size < b.size) {
    GallopIntersect(a, b, best, best_rank);
  } else {
    GallopIntersect(b, a, best, best_rank);
  }
  return best;
}

std::optional<std::pair<Cost, uint32_t>> HubLabeling::QueryWithHub(
    VertexId s, VertexId t) const {
  KOSR_COUNT(kLabelQueries, 1);
  LabelRun a = flat_out_.Run(s);
  LabelRun b = flat_in_.Run(t);
  Cost best = kInfCost;
  uint32_t best_rank = 0;
  if (RunsLopsided(a, b)) {
    best = QueryGallop(a, b, best_rank);
  } else {
    best = MergeLabelRuns<true>(a, b, best_rank);
  }
  if (best == kInfCost) return std::nullopt;
  return std::make_pair(best, best_rank);
}

std::vector<VertexId> HubLabeling::UnpackPath(VertexId s, VertexId t) const {
  if (s == t) return {s};
  auto q = QueryWithHub(s, t);
  if (!q) return {};
  uint32_t rank = q->second;
  VertexId hub = order_[rank];

  // Every labeling this code builds has intact parent chains (asserted),
  // but a labeling assembled from parts — or a hostile snapshot that slips
  // past validation — might not: walk defensively (missing link -> empty
  // path, like an unreachable pair) and bound each chain by n (a shortest
  // path is simple), so malformed parents can never dereference null or
  // spin a serve worker forever.
  auto walk = [&](VertexId from, const FlatSide& side) -> std::vector<VertexId> {
    std::vector<VertexId> chain;
    VertexId cur = from;
    while (cur != hub) {
      if (chain.size() >= num_vertices()) return {};
      chain.push_back(cur);
      LabelRun run = side.Run(cur);
      uint32_t i = FindRankInRun(run, rank);
      assert(i < run.size && run.parent[i] != kInvalidVertex);
      if (i >= run.size || run.parent[i] == kInvalidVertex) return {};
      cur = run.parent[i];
    }
    chain.push_back(hub);
    return chain;
  };

  // s -> hub along the Lout parent chain, then hub -> t along the Lin chain
  // (walked from t, so reversed).
  std::vector<VertexId> path = walk(s, flat_out_);
  std::vector<VertexId> tail = walk(t, flat_in_);
  if (path.empty() || tail.empty()) return {};
  // tail is [t, ..., hub]; reversed it is [hub, ..., t] — skip the hub,
  // path already ends with it.
  path.insert(path.end(), tail.rbegin() + 1, tail.rend());
  return path;
}

LabelRepairDelta HubLabeling::OnEdgeDecreased(const Graph& graph, VertexId u,
                                              VertexId v, Weight w) {
  // Short-circuit: if some existing route already beats the new weight
  // strictly, the arc lies on no shortest path (old or new) and no label
  // can change — one label query instead of the affected-hub sweep. An
  // equal-cost route does NOT qualify: the new arc then ties onto shortest
  // paths and can re-tie canonical parents and cover paths.
  if (Query(u, v) < static_cast<Cost>(w)) return {};
  return RepairEdgeUpdate(graph, u, v, std::nullopt, static_cast<Cost>(w));
}

LabelRepairDelta HubLabeling::OnEdgeIncreased(const Graph& graph, VertexId u,
                                              VertexId v, Weight old_weight) {
  // Mirror short-circuit: if another route already beat the *old* weight
  // strictly, the arc was on no shortest path and raising it further
  // changes nothing. Only the old-graph tightness test applies — the
  // raised arc cannot join a shortest path it was not already on.
  if (Query(u, v) < static_cast<Cost>(old_weight)) return {};
  return RepairEdgeUpdate(graph, u, v, static_cast<Cost>(old_weight),
                          std::nullopt);
}

LabelRepairDelta HubLabeling::OnEdgeRemoved(const Graph& graph, VertexId u,
                                            VertexId v, Weight old_weight) {
  // A deletion is a weight increase to infinity: only the old-graph
  // tightness test applies, and the re-run searches simply no longer see
  // the arc.
  if (Query(u, v) < static_cast<Cost>(old_weight)) return {};
  return RepairEdgeUpdate(graph, u, v, static_cast<Cost>(old_weight),
                          std::nullopt);
}

LabelRepairDelta HubLabeling::RepairEdgeUpdate(const Graph& graph, VertexId u,
                                               VertexId v,
                                               std::optional<Cost> tight_old,
                                               std::optional<Cost> tight_new) {
  EdgeRepairRequest request{u, v, tight_old, tight_new};
  return RepairEdgeUpdates(graph, {&request, 1});
}

LabelRepairDelta HubLabeling::RepairEdgeUpdates(
    const Graph& graph, std::span<const EdgeRepairRequest> requests) {
  const uint32_t n = num_vertices();

  // Per-request short-circuit on the shared pre-batch labels: when an
  // existing route strictly beats every engaged tight of a request,
  // neither of its tightness tests can fire for any hub (dis(h, v) <=
  // dis(h, u) + dis(u, v) < dis(h, u) + tight, so neither the equality
  // nor the <= test is satisfiable) — skip the request without the
  // affected-hub sweep. This is the batched form of the one-label-query
  // short-circuit in OnEdgeDecreased / OnEdgeIncreased.
  std::vector<const EdgeRepairRequest*> active;
  active.reserve(requests.size());
  for (const EdgeRepairRequest& request : requests) {
    Cost existing = Query(request.u, request.v);
    bool old_dead = !request.tight_old || existing < *request.tight_old;
    bool new_dead = !request.tight_new || existing < *request.tight_new;
    if (old_dead && new_dead) continue;
    active.push_back(&request);
  }
  if (active.empty()) return {};

  // Phase 1 — affected hubs, read off the *pre-batch* labels (nothing has
  // been mutated yet, so Query still answers pre-batch distances exactly).
  //
  // A hub's forward label set can change only if some batched arc lies on
  // a shortest path from it in the old graph (dis(h, u) + w_old ==
  // dis(h, v); its loss can change distances, uncover entries of
  // larger-ranked hubs whose cover path crossed the arc, or untie
  // canonical parents) or in the new graph (dis(h, u) + w_new <=
  // dis(h, v); a strict improvement changes distances, an exact tie can
  // newly cover entries away or re-tie parents). Backward mirror: the arc
  // on a shortest path *to* the hub. The affected set of a batch is the
  // union over its requests: any hub whose labels differ between the
  // pre-batch and post-batch graphs owes that difference to at least one
  // net-changed arc on an old or new shortest path, and that arc's test
  // fires for it. DESIGN.md ("Dynamic updates" and "Snapshot
  // publication") gives the exactness argument. Because the hub order is
  // a permutation of all vertices, empty tight sets certify that no
  // pair's distance (and no label entry) changed at all.
  std::vector<uint32_t> fwd_ranks, bwd_ranks;
  std::vector<bool> fwd_affected(n, false), bwd_affected(n, false);
  for (uint32_t r = 0; r < n; ++r) {
    VertexId h = order_[r];
    for (const EdgeRepairRequest* request : active) {
      if (!fwd_affected[r]) {
        Cost hu = Query(h, request->u);
        if (hu != kInfCost) {
          Cost hv = Query(h, request->v);
          if ((request->tight_old && hu + *request->tight_old == hv) ||
              (request->tight_new && hu + *request->tight_new <= hv)) {
            fwd_ranks.push_back(r);
            fwd_affected[r] = true;
          }
        }
      }
      if (!bwd_affected[r]) {
        Cost vh = Query(request->v, h);
        if (vh != kInfCost) {
          Cost uh = Query(request->u, h);
          if ((request->tight_old && *request->tight_old + vh == uh) ||
              (request->tight_new && *request->tight_new + vh <= uh)) {
            bwd_ranks.push_back(r);
            bwd_affected[r] = true;
          }
        }
      }
      if (fwd_affected[r] && bwd_affected[r]) break;
    }
  }
  KOSR_COUNT(kRepairTightnessTests, static_cast<uint64_t>(n) * active.size());
  if (fwd_ranks.empty() && bwd_ranks.empty()) return {};

  // Phase 2 — drop every label entry owned by an affected hub. Entries can
  // move to new vertices after the update (weaker coverage), so a full
  // re-search replaces a per-entry patch; stale entries must go first or
  // InsertOrUpdate would keep their smaller, now-wrong distances. Only the
  // vertices holding such an entry get an edit buffer.
  LabelEdits edits(n);
  auto scrub = [&](VertexId x, bool in_side,
                   const std::vector<bool>& affected) {
    const FlatSide& flat = in_side ? flat_in_ : flat_out_;
    LabelRun run = flat.Run(x);
    bool any = false;
    for (uint32_t i = 0; i < run.size && !any; ++i) {
      any = affected[run.RankAt(i)];
    }
    if (!any) return;
    std::erase_if(edits.Side(in_side).Open(x, flat), [&](const LabelEntry& e) {
      return affected[e.hub_rank];
    });
  };
  for (VertexId x = 0; x < n; ++x) {
    scrub(x, /*in_side=*/true, fwd_affected);
    scrub(x, /*in_side=*/false, bwd_affected);
  }

  // Phase 3 — re-run the affected hubs' pruned searches against the updated
  // graph, interleaved in ascending rank order with forward before backward
  // at equal rank: exactly the order the sequential build commits in, so
  // every prune runs against the canonical label prefix (smaller affected
  // ranks already repaired, unaffected ranks provably unchanged) and the
  // committed entries are byte-identical to a from-scratch build's.
  KOSR_COUNT(kRepairResearches, fwd_ranks.size() + bwd_ranks.size());
  SearchContext ctx(n);
  size_t fi = 0, bi = 0;
  while (fi < fwd_ranks.size() || bi < bwd_ranks.size()) {
    bool take_fwd = bi >= bwd_ranks.size() ||
                    (fi < fwd_ranks.size() && fwd_ranks[fi] <= bwd_ranks[bi]);
    uint32_t r = take_fwd ? fwd_ranks[fi++] : bwd_ranks[bi++];
    PrunedSearch(graph, r, /*forward=*/take_fwd, ctx, edits, nullptr);
  }

  // Reseal exactly the runs whose buffers differ from them: a re-search
  // that removes and re-inserts identical entries (tight-but-unchanged
  // hubs) contributes nothing to the delta.
  LabelRepairDelta delta;
  delta.changed_in = SealEdits(flat_in_, edits.in, &delta.old_in);
  delta.changed_out = SealEdits(flat_out_, edits.out, nullptr);
  return delta;
}

double HubLabeling::AvgInLabelSize() const {
  uint32_t n = num_vertices();
  return n == 0 ? 0 : static_cast<double>(flat_in_.Entries()) / n;
}

double HubLabeling::AvgOutLabelSize() const {
  uint32_t n = num_vertices();
  return n == 0 ? 0 : static_cast<double>(flat_out_.Entries()) / n;
}

uint64_t HubLabeling::IndexBytes() const {
  return (flat_in_.Entries() + flat_out_.Entries()) * sizeof(LabelEntry);
}

namespace {

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadPod(std::istream& in) {
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("truncated hub labeling stream");
  return value;
}

// Reads one snapshot record into `l`. `max_size` bounds the allocation
// before it happens: a vertex has at most one entry per hub, so any claimed
// size beyond the vertex count is malformed, not merely big.
void ReadLabelVector(std::istream& in, uint64_t max_size,
                     std::vector<LabelEntry>& l) {
  uint64_t size = ReadPod<uint64_t>(in);
  if (size > max_size) {
    throw std::runtime_error("label vector size exceeds vertex count");
  }
  l.resize(size);
  in.read(reinterpret_cast<char*>(l.data()),
          static_cast<std::streamsize>(size * sizeof(LabelEntry)));
  if (!in) throw std::runtime_error("truncated hub labeling stream");
}

}  // namespace

void WriteLabelRun(std::ostream& out, const LabelRun& run,
                   std::vector<LabelEntry>& scratch) {
  WritePod<uint64_t>(out, run.size);
  scratch.clear();
  scratch.reserve(run.size);
  for (uint32_t i = 0; i < run.size; ++i) {
    scratch.push_back({run.RankAt(i), run.DistAt(i), run.parent[i]});
  }
  out.write(reinterpret_cast<const char*>(scratch.data()),
            static_cast<std::streamsize>(scratch.size() * sizeof(LabelEntry)));
}

void HubLabeling::Serialize(std::ostream& out) const {
  WritePod<uint64_t>(out, 0x4b4f53524c424c31ull);  // "KOSRLBL1"
  WritePod<uint32_t>(out, num_vertices());
  out.write(reinterpret_cast<const char*>(order_.data()),
            static_cast<std::streamsize>(order_.size() * sizeof(VertexId)));
  std::vector<LabelEntry> scratch;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    WriteLabelRun(out, flat_in_.Run(v), scratch);
  }
  for (VertexId v = 0; v < num_vertices(); ++v) {
    WriteLabelRun(out, flat_out_.Run(v), scratch);
  }
}

HubLabeling HubLabeling::Deserialize(std::istream& in,
                                     uint32_t expected_vertices) {
  if (ReadPod<uint64_t>(in) != 0x4b4f53524c424c31ull) {
    throw std::runtime_error("bad hub labeling magic");
  }
  uint32_t n = ReadPod<uint32_t>(in);
  if (expected_vertices != 0 && n != expected_vertices) {
    throw std::runtime_error("index snapshot is for a different graph");
  }
  HubLabeling hl;
  hl.order_.resize(n);
  in.read(reinterpret_cast<char*>(hl.order_.data()),
          static_cast<std::streamsize>(n * sizeof(VertexId)));
  if (!in) throw std::runtime_error("truncated hub labeling stream");
  if (!IsPermutation(hl.order_, n)) {
    // Without this check the rank_[order_[r]] scatter below would write out
    // of bounds for order values >= n.
    throw std::runtime_error("hub order is not a permutation of the vertices");
  }
  hl.rank_.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) hl.rank_[hl.order_[r]] = r;
  std::vector<LabelEntry> record;
  for (FlatSide* side : {&hl.flat_in_, &hl.flat_out_}) {
    const char* what =
        side == &hl.flat_in_ ? "hub labeling Lin" : "hub labeling Lout";
    side->Reset(n);
    for (uint32_t v = 0; v < n; ++v) {
      ReadLabelVector(in, n, record);
      side->ResealRun(v, record);
      ValidateRun(side->Run(v), n, what);
    }
  }
  // Structural pass: parent chains must be walkable, or UnpackPath on a
  // hostile snapshot could chase dangling or circular parents. In any real
  // labeling a non-hub entry's parent is the next vertex on the path toward
  // the hub, one positive-weight arc closer — so the parent carries a
  // same-side entry for the same hub with strictly smaller distance, and a
  // parentless entry is exactly the hub's self-entry. Full snapshots (unlike
  // FromParts working sets) contain every chain link, so both invariants are
  // checkable here.
  for (const FlatSide* side : {&hl.flat_in_, &hl.flat_out_}) {
    for (uint32_t v = 0; v < n; ++v) {
      LabelRun run = side->Run(v);
      for (uint32_t i = 0; i < run.size; ++i) {
        uint32_t rank = run.RankAt(i);
        if (run.parent[i] == kInvalidVertex) {
          if (hl.order_[rank] != v) {
            throw std::runtime_error(
                "hub labeling entry without a parent is not a hub self-entry");
          }
          continue;
        }
        LabelRun up = side->Run(run.parent[i]);
        uint32_t j = FindRankInRun(up, rank);
        if (j == up.size || up.DistAt(j) >= run.DistAt(i)) {
          throw std::runtime_error(
              "hub labeling parent chain is broken or not decreasing");
        }
      }
    }
  }
  return hl;
}

HubLabeling HubLabeling::FromParts(
    std::vector<VertexId> order,
    std::vector<std::vector<LabelEntry>> in_labels,
    std::vector<std::vector<LabelEntry>> out_labels) {
  uint32_t n = static_cast<uint32_t>(order.size());
  if (!IsPermutation(order, n)) {
    throw std::runtime_error("hub order is not a permutation of the vertices");
  }
  if (in_labels.size() != n || out_labels.size() != n) {
    throw std::runtime_error("label table size disagrees with hub order");
  }
  HubLabeling hl;
  hl.order_ = std::move(order);
  hl.rank_.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) hl.rank_[hl.order_[r]] = r;
  auto seal = [n](FlatSide& side,
                  const std::vector<std::vector<LabelEntry>>& labels,
                  const char* what) {
    side.Reset(n);
    for (VertexId v = 0; v < n; ++v) {
      side.ResealRun(v, labels[v]);
      ValidateRun(side.Run(v), n, what);
    }
  };
  seal(hl.flat_in_, in_labels, "Lin part");
  seal(hl.flat_out_, out_labels, "Lout part");
  return hl;
}

}  // namespace kosr
