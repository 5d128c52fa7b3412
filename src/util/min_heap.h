#ifndef KOSR_UTIL_MIN_HEAP_H_
#define KOSR_UTIL_MIN_HEAP_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/util/types.h"

namespace kosr {

/// Minimal binary min-heap over an owned vector, as a drop-in for
/// std::priority_queue<T, std::vector<T>, Greater> on the query hot paths.
/// Unlike std::priority_queue it exposes Clear(), which empties the heap
/// while keeping the vector's capacity — a query that reuses the heap via
/// KosrScratch/QueryContext allocates nothing once warmed up.
///
/// `Greater` is a strict weak order with a > b meaning "a after b"; Top()
/// returns the minimum, exactly like the std::greater<> priority_queue
/// idiom it replaces.
template <typename T, typename Greater = std::greater<T>>
class MinQueue {
 public:
  bool Empty() const { return items_.empty(); }
  size_t Size() const { return items_.size(); }
  const T& Top() const {
    assert(!items_.empty());
    return items_.front();
  }

  void Push(T item) {
    items_.push_back(std::move(item));
    std::push_heap(items_.begin(), items_.end(), Greater{});
  }

  void Pop() {
    assert(!items_.empty());
    std::pop_heap(items_.begin(), items_.end(), Greater{});
    items_.pop_back();
  }

  /// Empties the heap, retaining capacity.
  void Clear() { items_.clear(); }

 private:
  std::vector<T> items_;
};

/// Addressable 4-ary min-heap over dense uint32 keys, specialized for
/// Dijkstra-style searches. Supports Insert, DecreaseKey (via Update) and
/// ExtractMin in O(log n); membership is tracked with a position array that
/// is lazily sized to the key universe.
///
/// The heap is reusable: Clear() resets it in O(#touched) rather than
/// O(universe), which matters when many small searches run on a big graph.
class IndexedMinHeap {
 public:
  explicit IndexedMinHeap(uint32_t universe = 0) { Resize(universe); }

  void Resize(uint32_t universe) { pos_.resize(universe, kAbsent); }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  bool Contains(uint32_t key) const {
    return key < pos_.size() && pos_[key] != kAbsent;
  }

  Cost PriorityOf(uint32_t key) const {
    assert(Contains(key));
    return heap_[pos_[key]].priority;
  }

  /// Inserts `key`, or lowers its priority if already present with a higher
  /// one. Returns true if the heap changed.
  bool InsertOrDecrease(uint32_t key, Cost priority) {
    assert(key < pos_.size());
    if (pos_[key] == kAbsent) {
      pos_[key] = static_cast<uint32_t>(heap_.size());
      heap_.push_back({priority, key});
      touched_.push_back(key);
      SiftUp(pos_[key]);
      return true;
    }
    uint32_t i = pos_[key];
    if (heap_[i].priority <= priority) return false;
    heap_[i].priority = priority;
    SiftUp(i);
    return true;
  }

  /// Removes and returns the (priority, key) pair with minimal priority.
  std::pair<Cost, uint32_t> ExtractMin() {
    assert(!heap_.empty());
    Entry top = heap_[0];
    SwapEntries(0, static_cast<uint32_t>(heap_.size() - 1));
    heap_.pop_back();
    pos_[top.key] = kAbsent;
    if (!heap_.empty()) SiftDown(0);
    return {top.priority, top.key};
  }

  /// Empties the heap and resets position bookkeeping for touched keys only.
  void Clear() {
    for (uint32_t k : touched_) pos_[k] = kAbsent;
    touched_.clear();
    heap_.clear();
  }

 private:
  struct Entry {
    Cost priority;
    uint32_t key;
  };
  static constexpr uint32_t kAbsent = UINT32_MAX;

  void SwapEntries(uint32_t a, uint32_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[heap_[a].key] = a;
    pos_[heap_[b].key] = b;
  }

  void SiftUp(uint32_t i) {
    while (i > 0) {
      uint32_t parent = (i - 1) / 4;
      if (heap_[parent].priority <= heap_[i].priority) break;
      SwapEntries(parent, i);
      i = parent;
    }
  }

  void SiftDown(uint32_t i) {
    for (;;) {
      uint32_t best = i;
      uint32_t first_child = 4 * i + 1;
      for (uint32_t c = first_child;
           c < first_child + 4 && c < heap_.size(); ++c) {
        if (heap_[c].priority < heap_[best].priority) best = c;
      }
      if (best == i) return;
      SwapEntries(best, i);
      i = best;
    }
  }

  std::vector<Entry> heap_;
  std::vector<uint32_t> pos_;
  std::vector<uint32_t> touched_;
};

/// Addressable 4-ary min-heap like IndexedMinHeap, for the pruned searches
/// of hub labeling, with two differences. Priorities are 32-bit, as label
/// distances are (a larger one wraps and pops out of order), and each entry
/// packs (priority, key) into one 64-bit word: half the footprint, one
/// compare per step. And entries are ordered by (priority, key), a total
/// order, so the sequence of pops depends only on which entries are
/// queued, never on the order they were queued in. A search over
/// zero-weight arcs needs that: the canonical parent of a vertex depends on
/// which equal-distance vertices pop before it, and a repair only
/// reproduces a build's labels if that does not depend on heap history
/// (DESIGN.md, "Dynamic updates"). IndexedMinHeap stays for the searches
/// whose costs can outgrow 32 bits (multi-leg route costs).
class PackedMinHeap {
 public:
  explicit PackedMinHeap(uint32_t universe = 0) : pos_(universe, kAbsent) {}

  bool Empty() const { return heap_.empty(); }

  /// Inserts `key`, or lowers its priority if already present with a higher
  /// one.
  void InsertOrDecrease(uint32_t key, Cost priority) {
    assert(key < pos_.size());
    const uint64_t entry = (static_cast<uint64_t>(priority) << 32) | key;
    uint32_t i = pos_[key];
    if (i == kAbsent) {
      i = static_cast<uint32_t>(heap_.size());
      pos_[key] = i;
      heap_.push_back(entry);
      touched_.push_back(key);
    } else if (heap_[i] <= entry) {
      return;
    } else {
      heap_[i] = entry;
    }
    SiftUp(i);
  }

  /// Removes and returns the (priority, key) pair that comes first.
  std::pair<Cost, uint32_t> ExtractMin() {
    assert(!heap_.empty());
    const uint64_t top = heap_[0];
    SwapEntries(0, static_cast<uint32_t>(heap_.size() - 1));
    heap_.pop_back();
    pos_[static_cast<uint32_t>(top)] = kAbsent;
    if (!heap_.empty()) SiftDown(0);
    return {static_cast<Cost>(top >> 32), static_cast<uint32_t>(top)};
  }

  /// Empties the heap and resets position bookkeeping for touched keys only.
  void Clear() {
    for (uint32_t k : touched_) pos_[k] = kAbsent;
    touched_.clear();
    heap_.clear();
  }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  void SwapEntries(uint32_t a, uint32_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[static_cast<uint32_t>(heap_[a])] = a;
    pos_[static_cast<uint32_t>(heap_[b])] = b;
  }

  void SiftUp(uint32_t i) {
    while (i > 0) {
      uint32_t parent = (i - 1) / 4;
      if (heap_[parent] <= heap_[i]) break;
      SwapEntries(parent, i);
      i = parent;
    }
  }

  void SiftDown(uint32_t i) {
    for (;;) {
      uint32_t best = i;
      uint32_t first_child = 4 * i + 1;
      for (uint32_t c = first_child;
           c < first_child + 4 && c < heap_.size(); ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
      if (best == i) return;
      SwapEntries(best, i);
      i = best;
    }
  }

  std::vector<uint64_t> heap_;  ///< (priority << 32) | key.
  std::vector<uint32_t> pos_;
  std::vector<uint32_t> touched_;
};

}  // namespace kosr

#endif  // KOSR_UTIL_MIN_HEAP_H_
