#include "src/nn/inverted_label_index.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace kosr {
namespace {

bool EntryLess(const InvertedEntry& a, const InvertedEntry& b) {
  return a.dist != b.dist ? a.dist < b.dist : a.member < b.member;
}

}  // namespace

void InvertedLabelIndex::InsertEntry(uint32_t rank, VertexId member,
                                     uint32_t dist) {
  auto& list = lists_[rank];
  InvertedEntry entry{member, dist};
  list.insert(std::lower_bound(list.begin(), list.end(), entry, EntryLess),
              entry);
}

void InvertedLabelIndex::RemoveEntry(uint32_t rank, VertexId member,
                                     uint32_t dist) {
  auto it = lists_.find(rank);
  if (it == lists_.end()) return;
  auto& list = it->second;
  InvertedEntry entry{member, dist};
  auto pos = std::lower_bound(list.begin(), list.end(), entry, EntryLess);
  if (pos != list.end() && pos->member == member && pos->dist == dist) {
    list.erase(pos);
    if (list.empty()) lists_.erase(it);
  }
}

InvertedLabelIndex InvertedLabelIndex::Build(
    const HubLabeling& labeling, std::span<const VertexId> members) {
  InvertedLabelIndex index;
  for (VertexId u : members) {
    LabelRun lin = labeling.InRun(u);
    for (uint32_t i = 0; i < lin.size; ++i) {
      index.lists_[lin.RankAt(i)].push_back({u, lin.DistAt(i)});
    }
  }
  for (auto& [rank, list] : index.lists_) {
    std::sort(list.begin(), list.end(), EntryLess);
  }
  return index;
}

void InvertedLabelIndex::AddMember(const HubLabeling& labeling, VertexId v) {
  LabelRun lin = labeling.InRun(v);
  for (uint32_t i = 0; i < lin.size; ++i) {
    InsertEntry(lin.RankAt(i), v, lin.DistAt(i));
  }
}

void InvertedLabelIndex::RemoveMember(const HubLabeling& labeling, VertexId v) {
  LabelRun lin = labeling.InRun(v);
  for (uint32_t i = 0; i < lin.size; ++i) {
    RemoveEntry(lin.RankAt(i), v, lin.DistAt(i));
  }
}

void InvertedLabelIndex::UpdateMember(VertexId v,
                                      std::span<const uint64_t> old_lin,
                                      std::span<const uint64_t> new_lin) {
  // Lockstep merge over the rank-sorted keys: a rank only in the old Lin
  // lost its entry, one only in the new Lin gained one, and a rank in both
  // moves its entry only if the distance (the key's low half) changed.
  auto rank = [](uint64_t key) { return static_cast<uint32_t>(key >> 32); };
  auto dist = [](uint64_t key) { return static_cast<uint32_t>(key); };
  size_t i = 0, j = 0;
  while (i < old_lin.size() || j < new_lin.size()) {
    if (j == new_lin.size() ||
        (i < old_lin.size() && rank(old_lin[i]) < rank(new_lin[j]))) {
      RemoveEntry(rank(old_lin[i]), v, dist(old_lin[i]));
      ++i;
    } else if (i == old_lin.size() || rank(new_lin[j]) < rank(old_lin[i])) {
      InsertEntry(rank(new_lin[j]), v, dist(new_lin[j]));
      ++j;
    } else {
      if (old_lin[i] != new_lin[j]) {
        RemoveEntry(rank(old_lin[i]), v, dist(old_lin[i]));
        InsertEntry(rank(new_lin[j]), v, dist(new_lin[j]));
      }
      ++i;
      ++j;
    }
  }
}

uint64_t InvertedLabelIndex::total_entries() const {
  uint64_t total = 0;
  for (const auto& [rank, list] : lists_) total += list.size();
  return total;
}

double InvertedLabelIndex::AvgListSize() const {
  if (lists_.empty()) return 0;
  return static_cast<double>(total_entries()) / lists_.size();
}

uint64_t InvertedLabelIndex::IndexBytes() const {
  return total_entries() * sizeof(InvertedEntry) +
         lists_.size() * (sizeof(uint32_t) + sizeof(void*));
}

void InvertedLabelIndex::Serialize(std::ostream& out) const {
  // Canonical order: the map's iteration order depends on its insertion
  // history, so emitting it directly would make byte-identical indexes
  // (fresh build vs. snapshot load vs. incremental repair) serialize
  // differently. Sorted ranks make the serialization a pure function of the
  // index contents — what the checkpoint/recovery equivalence checks
  // (ISSUE 9) and the build-reproducibility tests compare.
  std::vector<uint32_t> ranks;
  ranks.reserve(lists_.size());
  for (const auto& [rank, list] : lists_) ranks.push_back(rank);
  std::sort(ranks.begin(), ranks.end());
  uint64_t n = ranks.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (uint32_t rank : ranks) {
    const std::vector<InvertedEntry>& list = lists_.at(rank);
    out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
    uint64_t size = list.size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(list.data()),
              static_cast<std::streamsize>(size * sizeof(InvertedEntry)));
  }
}

InvertedLabelIndex InvertedLabelIndex::Deserialize(std::istream& in,
                                                   uint32_t num_vertices) {
  InvertedLabelIndex index;
  uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) throw std::runtime_error("truncated inverted label stream");
  // One list per hub, one entry per (member, hub) Lin pair: both counts are
  // bounded by the vertex universe, so anything larger is malformed — check
  // before allocating from attacker-controlled sizes.
  if (n > num_vertices) {
    throw std::runtime_error("inverted label list count exceeds vertex count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t rank;
    uint64_t size;
    in.read(reinterpret_cast<char*>(&rank), sizeof(rank));
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    if (!in) throw std::runtime_error("truncated inverted label stream");
    if (num_vertices != kInvalidVertex &&
        (rank >= num_vertices || size > num_vertices)) {
      throw std::runtime_error("inverted label list header out of range");
    }
    std::vector<InvertedEntry> list(size);
    in.read(reinterpret_cast<char*>(list.data()),
            static_cast<std::streamsize>(size * sizeof(InvertedEntry)));
    if (!in) throw std::runtime_error("truncated inverted label stream");
    if (num_vertices != kInvalidVertex) {
      for (const InvertedEntry& e : list) {
        if (e.member >= num_vertices) {
          throw std::runtime_error("inverted label member out of range");
        }
      }
    }
    index.lists_[rank] = std::move(list);
  }
  return index;
}

}  // namespace kosr
