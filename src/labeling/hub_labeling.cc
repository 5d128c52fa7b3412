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

// First entry of a rank-sorted buffer with hub rank >= `rank`.
std::vector<LabelEntry>::iterator RankLowerBound(
    std::vector<LabelEntry>& labels, uint32_t rank) {
  return std::lower_bound(labels.begin(), labels.end(), rank,
                          [](const LabelEntry& e, uint32_t r) {
                            return e.hub_rank < r;
                          });
}

// Sets the buffer's entry for entry.hub_rank, replacing any existing one
// and keeping the buffer sorted by rank. A build writes ranks in ascending
// order, so it almost always appends.
void PutEntry(std::vector<LabelEntry>& labels, const LabelEntry& entry) {
  if (labels.empty() || labels.back().hub_rank < entry.hub_rank) {
    labels.push_back(entry);
    return;
  }
  auto it = RankLowerBound(labels, entry.hub_rank);
  if (it != labels.end() && it->hub_rank == entry.hub_rank) {
    *it = entry;
  } else {
    labels.insert(it, entry);
  }
}

// Drops the buffer's entry for `rank`, if it has one.
void EraseEntry(std::vector<LabelEntry>& labels, uint32_t rank) {
  auto it = RankLowerBound(labels, rank);
  if (it != labels.end() && it->hub_rank == rank) labels.erase(it);
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
  PackedMinHeap heap;
  std::vector<Cost> scratch;
  std::vector<uint32_t> scratch_touched;

  explicit SearchContext(uint32_t n)
      : dist(n, kInfCost),
        parent(n, kInvalidVertex),
        heap(n),
        scratch(n, kInfCost) {}

  // Empties the table LoadHubScratch filled.
  void ClearScratch() {
    for (uint32_t r : scratch_touched) scratch[r] = kInfCost;
    scratch_touched.clear();
  }
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
  for (auto& counts : hub_entries_) counts.clear();
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
      PutEntry(
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
  ctx.ClearScratch();
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
    PutEntry(
        edits.Side(forward).Open(c.vertex, forward ? flat_in_ : flat_out_),
        {rank, c.dist, c.parent});
  }
  ctx.ClearScratch();
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
  return RepairEdgeUpdate(graph, u, v, std::nullopt, static_cast<Cost>(w));
}

LabelRepairDelta HubLabeling::OnEdgeIncreased(const Graph& graph, VertexId u,
                                              VertexId v, Weight old_weight) {
  // Only the old-graph tightness test applies: the raised arc cannot join
  // a shortest path it was not already on.
  return RepairEdgeUpdate(graph, u, v, static_cast<Cost>(old_weight),
                          std::nullopt);
}

LabelRepairDelta HubLabeling::OnEdgeRemoved(const Graph& graph, VertexId u,
                                            VertexId v, Weight old_weight) {
  // A deletion is a weight increase to infinity: only the old-graph
  // tightness test applies, and the re-run searches simply no longer see
  // the arc.
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

// One batched repair: the rank-ordered worklist of (rank, direction) slots
// whose pruned search may diverge from its pre-batch run, and the per-hub
// diff that feeds it (DESIGN.md, "Dynamic updates"). Slot 2r is rank r's
// forward search and 2r + 1 its backward one, so ascending slot order is
// the order the build commits in. The sealed runs stay the pre-batch
// labels until Run() reseals at the end; every edit in between lands in
// edit buffers, opened only for vertices whose entries actually change.
class HubLabeling::Repair {
 public:
  Repair(HubLabeling& hl, const Graph& graph,
         std::vector<const EdgeRepairRequest*> active)
      : hl_(hl),
        graph_(graph),
        active_(std::move(active)),
        edits_(hl.num_vertices()),
        ctx_(hl.num_vertices()),
        queued_(2 * size_t{hl.num_vertices()}, 0),
        forced_(2 * size_t{hl.num_vertices()}, 0),
        check_head_(2 * size_t{hl.num_vertices()}, kNone),
        check_stamp_(hl.num_vertices(), kNoSlot),
        new_stamp_(hl.num_vertices(), kNoSlot),
        walk_stamp_(hl.num_vertices(), kNoSlot) {
    for (auto& side : enumerated_) side.assign(hl.num_vertices(), 0);
    for (auto& side : cursor_) side.assign(hl.num_vertices(), 0);
  }

  LabelRepairDelta Run() {
    for (const EdgeRepairRequest* request : active_) {
      // Rule (a): a forward search relaxes (u, v) only from an unpruned u,
      // i.e. only if its hub labels u; a backward search only if its hub
      // labels v.
      for (const uint64_t* k = hl_.flat_in_.Run(request->u).key;
           *k != kSentinelKey; ++k) {
        Force(Slot(static_cast<uint32_t>(*k >> 32), /*forward=*/true));
      }
      for (const uint64_t* k = hl_.flat_out_.Run(request->v).key;
           *k != kSentinelKey; ++k) {
        Force(Slot(static_cast<uint32_t>(*k >> 32), /*forward=*/false));
      }
      if (graph_.ArcWeight(request->u, request->v) == kInfCost) {
        removed_out_.emplace_back(request->u, request->v);
        removed_in_.emplace_back(request->v, request->u);
      }
    }
    std::sort(removed_out_.begin(), removed_out_.end());
    std::sort(removed_in_.begin(), removed_in_.end());

    uint64_t examined = 0, researches = 0, unchanged = 0;
    while (!queue_.Empty()) {
      const uint64_t slot = queue_.Top();
      queue_.Pop();
      const uint32_t rank = static_cast<uint32_t>(slot / 2);
      const bool forward = slot % 2 == 0;
      ++examined;
      // A hub the batch leaves off every shortest path keeps its entries
      // whatever its search would replay; otherwise re-search only if the
      // replay can diverge.
      if (!Tight(rank, forward)) continue;
      if (!forced_[slot] && !PruneTestFlips(slot)) continue;
      ++researches;
      if (!ReSearch(slot)) ++unchanged;
    }
    KOSR_COUNT(kRepairTightnessTests, examined);
    KOSR_COUNT(kRepairResearches, researches);
    KOSR_COUNT(kRepairUnchangedResearches, unchanged);

    LabelRepairDelta delta;
    delta.changed_in = SealEdits(hl_.flat_in_, edits_.in, &delta.old_in);
    delta.changed_out = SealEdits(hl_.flat_out_, edits_.out, nullptr);
    for (auto [slot, entries] : recounts_) {
      hl_.hub_entries_[slot % 2][slot / 2] = entries;
    }
    return delta;
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr uint64_t kNoSlot = UINT64_MAX;

  static uint64_t Slot(uint32_t rank, bool forward) {
    return 2 * uint64_t{rank} + (forward ? 0 : 1);
  }

  void Queue(uint64_t slot) {
    if (queued_[slot]) return;
    queued_[slot] = 1;
    queue_.Push(slot);
  }
  // Rules (a) and (b): the search must run again.
  void Force(uint64_t slot) {
    forced_[slot] = 1;
    Queue(slot);
  }
  // Rule (c): x's prune test in this search must be re-evaluated.
  void Check(uint64_t slot, VertexId x) {
    checks_.emplace_back(x, check_head_[slot]);
    check_head_[slot] = static_cast<uint32_t>(checks_.size() - 1);
    Queue(slot);
  }

  // The search side's sealed runs: the pre-batch labels a forward search
  // writes (Lin) or a backward one (Lout).
  const FlatSide& OldSide(bool forward) const {
    return forward ? hl_.flat_in_ : hl_.flat_out_;
  }

  // The distance-tightness test on the pre-batch labels: some batched arc
  // lies on, or ties with, a shortest path from the hub (forward; to it
  // backward) in the old graph, or joins one in the new graph. A hub
  // failing it has the same shortest-path structure before and after the
  // batch, hence the same canonical entries. The hub's pre-batch run goes
  // into the dense scratch table once, so each distance is one scan of a
  // request endpoint's run.
  bool Tight(uint32_t rank, bool forward) {
    const FlatSide& hub_side = forward ? hl_.flat_out_ : hl_.flat_in_;
    const FlatSide& end_side = forward ? hl_.flat_in_ : hl_.flat_out_;
    for (const uint64_t* k = hub_side.Run(hl_.order_[rank]).key;
         *k != kSentinelKey; ++k) {
      ctx_.scratch[*k >> 32] = static_cast<uint32_t>(*k);
      ctx_.scratch_touched.push_back(static_cast<uint32_t>(*k >> 32));
    }
    // dis(hub, x) forward, dis(x, hub) backward.
    auto dis = [&](VertexId x) {
      Cost best = kInfCost;
      for (const uint64_t* k = end_side.Run(x).key; *k != kSentinelKey; ++k) {
        Cost via = ctx_.scratch[*k >> 32];
        if (via != kInfCost) {
          best = std::min(best, via + static_cast<uint32_t>(*k));
        }
      }
      return best;
    };
    bool tight = false;
    for (const EdgeRepairRequest* request : active_) {
      Cost near = dis(forward ? request->u : request->v);
      if (near == kInfCost) continue;
      Cost far = dis(forward ? request->v : request->u);
      if ((request->tight_old && near + *request->tight_old == far) ||
          (request->tight_new && near + *request->tight_new <= far)) {
        tight = true;
        break;
      }
    }
    ctx_.ClearScratch();
    return tight;
  }

  // Index of the first entry of rank >= `rank` in x's pre-batch run on the
  // search side. A repair asks in ascending rank order per side (its slot
  // order), so each lookup gallops forward from where the last one for x
  // stopped: a batch that re-searches most hubs reads each run about once
  // instead of binary-searching it for every entry.
  uint32_t OldLowerBound(const LabelRun& run, VertexId x, uint32_t rank,
                         bool forward) {
    uint32_t& at = cursor_[forward ? 0 : 1][x];
    uint32_t lo = at, hi = at, step = 1;
    while (hi < run.size && run.RankAt(hi) < rank) {
      lo = hi + 1;
      hi += step;
      step *= 2;
    }
    at = static_cast<uint32_t>(
        std::lower_bound(run.key + lo, run.key + std::min(hi, run.size),
                         PackLabelKey(rank, 0)) -
        run.key);
    return at;
  }

  // Index of x's pre-batch entry for `rank` on the search side, or the
  // run's size if it has none.
  uint32_t OldIndex(const LabelRun& run, VertexId x, uint32_t rank,
                    bool forward) {
    uint32_t i = OldLowerBound(run, x, rank, forward);
    return i < run.size && run.RankAt(i) == rank ? i : run.size;
  }

  // The distance at which the pre-batch search of hub `rank` popped x, which
  // carries no entry for it: its best relaxation from a labeled (unpruned)
  // predecessor, or kInfCost if the search never reached x. Arcs from
  // labeled predecessors are unchanged whenever this is asked (rule (a)
  // did not fire), so the updated graph's arcs are the old ones.
  Cost OldPopDistance(VertexId x, uint32_t rank, bool forward) {
    Cost best = kInfCost;
    for (const Arc& a : forward ? graph_.InArcs(x) : graph_.OutArcs(x)) {
      LabelRun run = OldSide(forward).Run(a.head);
      uint32_t i = OldIndex(run, a.head, rank, forward);
      if (i < run.size) best = std::min(best, run.DistAt(i) + Cost{a.weight});
    }
    return best;
  }

  // Rule (c), run when (a) and (b) did not fire, so the hub's table and
  // every arc its old search relaxed are unchanged: whether a vertex queued
  // on this slot, one whose search-side run changed below the hub's rank,
  // now gets the opposite prune decision at the distance the old search
  // popped it at. If none does, the new search replays the old one.
  bool PruneTestFlips(uint64_t slot) {
    const uint32_t rank = static_cast<uint32_t>(slot / 2);
    const bool forward = slot % 2 == 0;
    const VertexId hub = hl_.order_[rank];
    hl_.LoadHubScratch(rank, forward, edits_, ctx_);
    bool flips = false;
    for (uint32_t c = check_head_[slot]; c != kNone && !flips;
         c = checks_[c].second) {
      VertexId x = checks_[c].first;
      if (check_stamp_[x] == slot) continue;
      check_stamp_[x] = slot;
      LabelRun run = OldSide(forward).Run(x);
      uint32_t i = OldIndex(run, x, rank, forward);
      const bool was_pruned = i == run.size;
      Cost d = x == hub      ? 0
               : was_pruned ? OldPopDistance(x, rank, forward)
                            : run.DistAt(i);
      if (d == kInfCost) continue;  // the old search never popped x
      bool now_pruned = hl_.Covered(rank, forward, x, edits_, ctx_) <= d;
      flips = now_pruned != was_pruned;
    }
    ctx_.ClearScratch();
    return flips;
  }

  // Re-runs the hub's pruned search and writes exactly the entries that
  // differ from its old ones. Returns whether any did.
  bool ReSearch(uint64_t slot) {
    const uint32_t rank = static_cast<uint32_t>(slot / 2);
    const bool forward = slot % 2 == 0;
    new_entries_.clear();
    hl_.PrunedSearch(graph_, rank, forward, ctx_, edits_, &new_entries_);
    const FlatSide& flat = OldSide(forward);
    EditSide& side = edits_.Side(forward);
    uint32_t kept = 0;  // new entries at vertices the hub labeled before
    bool changed = false;
    for (const CandidateLabel& c : new_entries_) {
      new_stamp_[c.vertex] = slot;
      LabelRun run = flat.Run(c.vertex);
      uint32_t i = OldIndex(run, c.vertex, rank, forward);
      bool moved = true;  // presence or distance changed, not just parent
      if (i < run.size) {
        ++kept;
        if (run.DistAt(i) == c.dist && run.parent[i] == c.parent) continue;
        moved = run.DistAt(i) != c.dist;
      }
      changed = true;
      PutEntry(side.Open(c.vertex, flat), {rank, c.dist, c.parent});
      if (moved) QueueDependents(c.vertex, rank, forward);
    }
    const bool vanished = kept != hl_.hub_entries_[forward ? 0 : 1][rank];
    recounts_.emplace_back(slot, static_cast<uint32_t>(new_entries_.size()));
    if (!vanished) return changed;
    // Some old entries are gone. They sit on the hub's old parent tree,
    // walked outward from the self-entry: an entry's parent holds an entry
    // for the same hub and is one pre-batch arc nearer to it. The walk
    // follows the updated graph's arcs plus the batch's deleted ones, which
    // old parent links may still run along.
    auto labeled_from = [&](VertexId x, VertexId from) {
      if (walk_stamp_[x] == slot) return;
      LabelRun run = flat.Run(x);
      uint32_t i = OldIndex(run, x, rank, forward);
      if (i == run.size || run.parent[i] != from) return;
      walk_stamp_[x] = slot;
      walk_.push_back(x);
    };
    walk_.clear();
    labeled_from(hl_.order_[rank], kInvalidVertex);
    const auto& removed = forward ? removed_out_ : removed_in_;
    for (size_t k = 0; k < walk_.size(); ++k) {
      VertexId x = walk_[k];
      for (const Arc& a : forward ? graph_.OutArcs(x) : graph_.InArcs(x)) {
        labeled_from(a.head, x);
      }
      for (auto it = std::lower_bound(removed.begin(), removed.end(),
                                      std::make_pair(x, VertexId{0}));
           it != removed.end() && it->first == x; ++it) {
        labeled_from(it->second, x);
      }
      if (new_stamp_[x] == slot) continue;
      EraseEntry(side.Open(x, flat), rank);
      QueueDependents(x, rank, forward);
    }
    return true;
  }

  // x's entry for hub `rank` appeared, vanished or changed distance on the
  // search side. Two kinds of larger-rank search read it: x's own search in
  // the other direction loads it into its hub table (rule (b)), and every
  // same-direction search that pops x prune-tests against it (rule (c)).
  // The pre-batch search of hub h pops x iff h labels x or a predecessor
  // of x on the search side (or h is x); enqueuing those hubs once, at
  // x's first change, covers every later change at a larger rank.
  void QueueDependents(VertexId x, uint32_t rank, bool forward) {
    const uint32_t own = hl_.rank_[x];
    if (own > rank) Force(Slot(own, !forward));
    uint8_t& enumerated = enumerated_[forward ? 0 : 1][x];
    if (enumerated) return;
    enumerated = 1;
    if (own > rank && !forced_[Slot(own, forward)]) Check(Slot(own, forward), x);
    auto check_labelers = [&](VertexId y) {
      LabelRun run = OldSide(forward).Run(y);
      const uint64_t* k = run.key + OldLowerBound(run, y, rank, forward);
      if ((*k >> 32) == rank) ++k;
      for (; *k != kSentinelKey; ++k) {
        const uint64_t slot = Slot(static_cast<uint32_t>(*k >> 32), forward);
        if (!forced_[slot]) Check(slot, x);  // a forced slot runs anyway
      }
    };
    check_labelers(x);
    for (const Arc& a : forward ? graph_.InArcs(x) : graph_.OutArcs(x)) {
      check_labelers(a.head);
    }
  }

  HubLabeling& hl_;
  const Graph& graph_;
  const std::vector<const EdgeRepairRequest*> active_;
  LabelEdits edits_;
  SearchContext ctx_;
  MinQueue<uint64_t> queue_;       // Slots with pending work, each once.
  std::vector<uint8_t> queued_;    // By slot.
  std::vector<uint8_t> forced_;    // By slot: rule (a) or (b) fired.
  std::vector<uint32_t> check_head_;  // By slot: its rule-(c) list, or kNone.
  std::vector<std::pair<VertexId, uint32_t>> checks_;  // (vertex, next).
  std::vector<uint64_t> check_stamp_;  // By vertex: last slot that tested it.
  std::vector<uint8_t> enumerated_[2];  // By vertex: Lin, Lout dependents queued.
  std::vector<uint32_t> cursor_[2];  // By vertex: Lin, Lout OldLowerBound.
  std::vector<uint64_t> new_stamp_;  // By vertex: last slot it got an entry in.
  std::vector<uint64_t> walk_stamp_;  // By vertex: last slot that walked it.
  std::vector<CandidateLabel> new_entries_;
  std::vector<VertexId> walk_;  // Old parent tree, breadth first.
  // (slot, entries) of every re-search, for hub_entries_ once sealed.
  std::vector<std::pair<uint64_t, uint32_t>> recounts_;
  // The batch's deleted arcs as (tail, head) and (head, tail) pairs.
  std::vector<std::pair<VertexId, VertexId>> removed_out_;
  std::vector<std::pair<VertexId, VertexId>> removed_in_;
};

LabelRepairDelta HubLabeling::RepairEdgeUpdates(
    const Graph& graph, std::span<const EdgeRepairRequest> requests) {
  // Per-request short-circuit on the shared pre-batch labels: when an
  // existing route strictly beats every engaged tight of a request, its
  // arc lies on no shortest path before or after the batch (dis(h, v) <=
  // dis(h, u) + dis(u, v) < dis(h, u) + tight for every hub), so it can
  // change no label — skip it with one label query. An equal-cost route
  // does not qualify: the arc then ties onto shortest paths and can re-tie
  // canonical parents and cover paths.
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
  if (hub_entries_[0].size() != num_vertices()) {
    for (int in_side : {0, 1}) {
      const FlatSide& flat = in_side == 0 ? flat_in_ : flat_out_;
      hub_entries_[in_side].assign(num_vertices(), 0);
      for (VertexId x = 0; x < num_vertices(); ++x) {
        for (const uint64_t* k = flat.Run(x).key; *k != kSentinelKey; ++k) {
          ++hub_entries_[in_side][*k >> 32];
        }
      }
    }
  }
  return Repair(*this, graph, std::move(active)).Run();
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
