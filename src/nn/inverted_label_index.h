#ifndef KOSR_NN_INVERTED_LABEL_INDEX_H_
#define KOSR_NN_INVERTED_LABEL_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/labeling/hub_labeling.h"
#include "src/util/types.h"

namespace kosr {

/// One entry of an inverted label list IL(u'): a category member `member`
/// whose Lin contains hub u' at distance `dist`.
struct InvertedEntry {
  VertexId member;
  uint32_t dist;
};

/// Inverted label index IL(Ci) for one category (Sec. IV-A of the paper).
///
/// For every hub u' appearing in the Lin label of some member u of the
/// category, IL(u') lists (u, dis(u', u)) sorted by distance ascending.
/// FindNN then only needs the *first unconsumed* entry of each matching
/// list, which makes incremental x-th-nearest-neighbor queries cheap.
///
/// Hubs are identified by their rank in the hub labeling.
class InvertedLabelIndex {
 public:
  InvertedLabelIndex() = default;

  /// Builds the index for the given category members.
  static InvertedLabelIndex Build(const HubLabeling& labeling,
                                  std::span<const VertexId> members);

  /// IL(hub): entries sorted by dist (empty span if the hub indexes no
  /// member).
  std::span<const InvertedEntry> Entries(uint32_t hub_rank) const {
    auto it = lists_.find(hub_rank);
    if (it == lists_.end()) return {};
    return it->second;
  }

  /// Dynamic category update (Sec. IV-C): vertex `v` joined the category.
  /// Inserts (v, d) into IL(u') for every (u', d) in Lin(v), via binary
  /// search — O(|Lin(v)| log |Ci|).
  void AddMember(const HubLabeling& labeling, VertexId v);

  /// Dynamic category update: vertex `v` left the category.
  void RemoveMember(const HubLabeling& labeling, VertexId v);

  /// Dynamic *label* update (Sec. IV-C): member `v`'s Lin run changed from
  /// `old_lin` to `new_lin` (packed PackLabelKey keys, rank-sorted) after an
  /// incremental edge repair. Walks the two runs in lockstep and patches
  /// only the lists of hubs whose entry for `v` appeared, vanished, or
  /// moved — the result is identical to a from-scratch Build over the same
  /// members (asserted in dynamic_update_test). O((|old| + |new|) log |Ci|),
  /// independent of how many categories exist.
  void UpdateMember(VertexId v, std::span<const uint64_t> old_lin,
                    std::span<const uint64_t> new_lin);

  uint64_t num_lists() const { return lists_.size(); }
  uint64_t total_entries() const;
  /// Avg entries per inverted label list (paper Table IX "Avg |IL(v)|").
  double AvgListSize() const;
  uint64_t IndexBytes() const;

  void Serialize(std::ostream& out) const;
  /// Reads an index written by Serialize. When `num_vertices` is given
  /// (untrusted snapshots: serve --indexes), every hub rank, member id, and
  /// claimed list size is range-checked against it before any allocation;
  /// malformed input raises std::runtime_error.
  static InvertedLabelIndex Deserialize(std::istream& in,
                                        uint32_t num_vertices = kInvalidVertex);

 private:
  void InsertEntry(uint32_t rank, VertexId member, uint32_t dist);
  void RemoveEntry(uint32_t rank, VertexId member, uint32_t dist);

  std::unordered_map<uint32_t, std::vector<InvertedEntry>> lists_;
};

}  // namespace kosr

#endif  // KOSR_NN_INVERTED_LABEL_INDEX_H_
