// Candidate link sets and user-node/anchor-link incidence structure.
//
// The cardinality constraint of the paper (§III-C.4) is expressed through
// the incidence matrices A(1) ∈ {0,1}^{|U1|×|H|} and A(2) ∈ {0,1}^{|U2|×|H|}:
// the one-to-one constraint is 0 ≤ A(i)·y ≤ 1. This module builds those
// matrices and the per-user link lists (two links conflict iff they share
// an endpoint) that both the greedy selector and the active query strategy
// read.

#ifndef ACTIVEITER_GRAPH_INCIDENCE_H_
#define ACTIVEITER_GRAPH_INCIDENCE_H_

#include <utility>
#include <vector>

#include "src/graph/aligned_pair.h"
#include "src/graph/types.h"
#include "src/linalg/sparse.h"
#include "src/linalg/vector.h"

namespace activeiter {

/// The candidate anchor-link set H of one experiment: an ordered list of
/// (u1, u2) pairs. Index into this list is the "link id" used everywhere
/// downstream (feature rows, label vector y, incidence columns).
///
/// Shrinkage is two-phase: Remove() tombstones a link (id space and link()
/// stay valid so in-flight consumers can still gather the row), then
/// Compact() erases every tombstone at once, renumbering the survivors.
class CandidateLinkSet {
 public:
  /// Remap value for a link erased by Compact().
  static constexpr size_t kRemovedId = static_cast<size_t>(-1);

  CandidateLinkSet() = default;

  /// Appends a candidate link and returns its link id.
  size_t Add(NodeId u1, NodeId u2);

  /// Tombstones link `id`. Out-of-range ids and double-removal are Status
  /// errors; nothing changes on failure.
  Status Remove(size_t id);

  /// True iff `id` is tombstoned (awaiting Compact()).
  bool removed(size_t id) const {
    return id < removed_.size() && removed_[id];
  }
  size_t removed_count() const { return removed_count_; }

  /// Erases every tombstoned link, renumbering survivors in order.
  /// Returns remap with remap[old_id] == new id, or kRemovedId for erased
  /// links — feed it to IncidenceIndex::CompactWith and any parallel
  /// per-link arrays (pins, global ids, design-matrix rows).
  std::vector<size_t> Compact();

  size_t size() const { return links_.size(); }
  bool empty() const { return links_.empty(); }

  const std::pair<NodeId, NodeId>& link(size_t id) const {
    ACTIVEITER_CHECK(id < links_.size());
    return links_[id];
  }
  const std::vector<std::pair<NodeId, NodeId>>& links() const {
    return links_;
  }

 private:
  std::vector<std::pair<NodeId, NodeId>> links_;
  std::vector<bool> removed_;  // sized lazily; empty = no tombstones
  size_t removed_count_ = 0;
};

/// Incidence structure of a candidate set: per-user link lists plus the
/// sparse incidence matrices of the paper.
class IncidenceIndex {
 public:
  /// Builds the index; user universes sized from the aligned pair.
  IncidenceIndex(const AlignedPair& pair, const CandidateLinkSet& candidates);

  /// Catches the index up with growth: re-sizes the per-user link lists to
  /// the given user universes (the two networks' user counts, which may
  /// only grow) and indexes every candidate appended to the (borrowed)
  /// candidate set since construction or the last sync. O(new users + new
  /// links); existing lists are untouched. Shrinkage must flow through
  /// RemoveCandidates + CompactWith first — a candidate set that shrank
  /// behind the index's back is a CHECK.
  void SyncWithCandidates(size_t users_first, size_t users_second);

  /// Validates and tombstones candidates: every id must be in range and
  /// not already removed; duplicate ids within one call are an error.
  /// Nothing mutates on failure. On success the per-user link lists are
  /// pruned eagerly, so LinksOfFirst/LinksOfSecond, the incidence
  /// matrices and degree vectors never surface a removed link (its column
  /// stays allocated but empty until CompactWith).
  Status RemoveCandidates(const std::vector<size_t>& ids);

  /// Finishes shrinkage after the borrowed candidate set compacted:
  /// rewrites surviving link ids through `remap` (the return value of
  /// CandidateLinkSet::Compact()) and clears the tombstone set.
  void CompactWith(const std::vector<size_t>& remap);

  /// All candidate link ids incident to user u1 of network 1 / u2 of net 2.
  const std::vector<size_t>& LinksOfFirst(NodeId u1) const;
  const std::vector<size_t>& LinksOfSecond(NodeId u2) const;

  /// A(1): |U1| × |H| incidence matrix.
  SparseMatrix FirstIncidenceMatrix() const;

  /// A(2): |U2| × |H| incidence matrix.
  SparseMatrix SecondIncidenceMatrix() const;

  /// Degree vectors d(i) = A(i)·y for a label vector y over H.
  Vector FirstDegrees(const Vector& y) const;
  Vector SecondDegrees(const Vector& y) const;

  /// True iff 0 ≤ A(1)y ≤ 1 and 0 ≤ A(2)y ≤ 1 (the one-to-one constraint).
  bool SatisfiesOneToOne(const Vector& y) const;

  size_t candidate_count() const { return candidates_->size(); }

  /// The candidate set this index was built over.
  const CandidateLinkSet& candidates() const { return *candidates_; }

  size_t users_first() const { return users_first_; }
  size_t users_second() const { return users_second_; }

 private:
  bool IsRemoved(size_t id) const {
    return id < removed_.size() && removed_[id];
  }

  const CandidateLinkSet* candidates_;
  size_t users_first_ = 0;
  size_t users_second_ = 0;
  size_t indexed_count_ = 0;  // candidates already in the per-user lists
  std::vector<std::vector<size_t>> by_first_;
  std::vector<std::vector<size_t>> by_second_;
  std::vector<bool> removed_;  // tombstones awaiting CompactWith
  size_t removed_count_ = 0;
};

}  // namespace activeiter

#endif  // ACTIVEITER_GRAPH_INCIDENCE_H_
