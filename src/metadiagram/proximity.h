// Meta diagram proximity (Definition 6):
//
//   s_Φ(u1_i, u2_j) = 2 |P_Φ(i, j)| / (|P_Φ(i, ·)| + |P_Φ(·, j)|)
//
// — the Dice coefficient of diagram instances between a user pair,
// penalised by all instances leaving i and entering j.

#ifndef ACTIVEITER_METADIAGRAM_PROXIMITY_H_
#define ACTIVEITER_METADIAGRAM_PROXIMITY_H_

#include "src/graph/incidence.h"
#include "src/linalg/sparse.h"
#include "src/linalg/vector.h"

namespace activeiter {

/// A count matrix with cached row/column sums, supporting O(log nnz)
/// proximity queries.
class ProximityScores {
 public:
  /// Takes the |U1|×|U2| diagram instance-count matrix.
  explicit ProximityScores(SparseMatrix counts);

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

  /// Copy padded to grown user universes (new users have no instances, so
  /// every existing score is unchanged and new pairs score 0). O(nnz)
  /// copy, no re-summation — the delta-aware engine carries clean
  /// diagrams across epochs with this instead of rebuilding their tables.
  ProximityScores PaddedTo(size_t rows, size_t cols) const;

  const SparseMatrix& counts() const { return counts_; }

 private:
  ProximityScores() = default;

  SparseMatrix counts_;
  Vector row_sums_;
  Vector col_sums_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_METADIAGRAM_PROXIMITY_H_
