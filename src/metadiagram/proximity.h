// Meta diagram proximity (Definition 6):
//
//   s_Φ(u1_i, u2_j) = 2 |P_Φ(i, j)| / (|P_Φ(i, ·)| + |P_Φ(·, j)|)
//
// — the Dice coefficient of diagram instances between a user pair,
// penalised by all instances leaving i and entering j.

#ifndef ACTIVEITER_METADIAGRAM_PROXIMITY_H_
#define ACTIVEITER_METADIAGRAM_PROXIMITY_H_

#include <memory>

#include "src/graph/incidence.h"
#include "src/linalg/sparse.h"
#include "src/linalg/vector.h"

namespace activeiter {

/// A count matrix with cached row/column sums, supporting O(log nnz)
/// proximity queries. The counts are shared, not copied: a table holds the
/// same matrix the product cache that computed it does.
class ProximityScores {
 public:
  /// Takes the |U1|×|U2| diagram instance-count matrix. It must own its
  /// storage (checked): an aliasing pointer with no owner, such as the
  /// evaluator's non-owning view of a RelationContext step, would dangle
  /// once the context is replaced.
  explicit ProximityScores(std::shared_ptr<const SparseMatrix> counts);
  explicit ProximityScores(SparseMatrix counts)
      : ProximityScores(
            std::make_shared<const SparseMatrix>(std::move(counts))) {}

  /// Dice proximity of one user pair; 0 when the pair has no instances at
  /// all (0/0 treated as 0).
  double Score(NodeId u1, NodeId u2) const;

  /// 2c / (|P(u1, ·)| + |P(·, u2)|) for a pair with c = `count` instances
  /// (unchecked): the one expression of Score() and ProximityTables::Gather.
  double DiceOf(NodeId u1, NodeId u2, double count) const {
    return 2.0 * count / (row_sums_.data()[u1] + col_sums_.data()[u2]);
  }

  /// Proximity for each candidate link, in candidate order.
  Vector ScoresFor(const CandidateLinkSet& candidates) const;

  /// This table carried to the next epoch: `counts` is the new count
  /// matrix (its universes may have grown) and `delta` its exact change
  /// counts − counts() (nullptr: none). The sums are these sums, padded
  /// with zeros, plus delta's row and column sums, with no pass over
  /// `counts`: exact for integer counts below 2⁵³, where an emptied row
  /// sums to +0.0 just as RowSums() gives.
  ProximityScores CarriedForward(std::shared_ptr<const SparseMatrix> counts,
                                 const SparseMatrix* delta) const;

  const SparseMatrix& counts() const { return *counts_; }

 private:
  ProximityScores() = default;

  std::shared_ptr<const SparseMatrix> counts_;
  Vector row_sums_;
  Vector col_sums_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_METADIAGRAM_PROXIMITY_H_
