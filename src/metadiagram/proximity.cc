#include "src/metadiagram/proximity.h"

namespace activeiter {

ProximityScores::ProximityScores(SparseMatrix counts)
    : counts_(std::move(counts)),
      row_sums_(counts_.RowSums()),
      col_sums_(counts_.ColSums()) {}

ProximityScores ProximityScores::PaddedTo(size_t rows, size_t cols) const {
  ProximityScores out;
  out.counts_ = counts_.PaddedTo(rows, cols);
  out.row_sums_ = row_sums_;
  out.row_sums_.Resize(rows);
  out.col_sums_ = col_sums_;
  out.col_sums_.Resize(cols);
  return out;
}

double ProximityScores::Score(NodeId u1, NodeId u2) const {
  const double count = counts_.At(u1, u2);  // checks u1 and u2
  if (count == 0.0) return 0.0;
  // The denominator is at least 2c > 0 whenever c > 0 (the (i,j) instances
  // are part of both sums), so this division is safe.
  return DiceOf(u1, u2, count);
}

Vector ProximityScores::ScoresFor(const CandidateLinkSet& candidates) const {
  Vector out(candidates.size());
  for (size_t id = 0; id < candidates.size(); ++id) {
    const auto& [u1, u2] = candidates.link(id);
    out(id) = Score(u1, u2);
  }
  return out;
}

}  // namespace activeiter
