#include "src/metadiagram/proximity.h"

namespace activeiter {

ProximityScores::ProximityScores(std::shared_ptr<const SparseMatrix> counts)
    : counts_(std::move(counts)) {
  ACTIVEITER_CHECK_MSG(counts_ != nullptr && counts_.use_count() > 0,
                       "ProximityScores needs counts that own their storage");
  row_sums_ = counts_->RowSums();
  col_sums_ = counts_->ColSums();
}

ProximityScores ProximityScores::CarriedForward(
    std::shared_ptr<const SparseMatrix> counts,
    const SparseMatrix* delta) const {
  ACTIVEITER_CHECK_MSG(counts != nullptr && counts.use_count() > 0,
                       "ProximityScores needs counts that own their storage");
  ACTIVEITER_CHECK_MSG(counts->rows() >= counts_->rows() &&
                           counts->cols() >= counts_->cols(),
                       "CarriedForward only grows a table");
  ACTIVEITER_CHECK_MSG(delta == nullptr || (delta->rows() == counts->rows() &&
                                            delta->cols() == counts->cols()),
                       "CarriedForward delta shape mismatch");
  ProximityScores out;
  out.row_sums_ = row_sums_;
  out.row_sums_.Resize(counts->rows());
  out.col_sums_ = col_sums_;
  out.col_sums_.Resize(counts->cols());
  if (delta != nullptr) {
    double* row_sums = out.row_sums_.data();
    double* col_sums = out.col_sums_.data();
    delta->ForEach([&](size_t i, size_t j, double v) {
      row_sums[i] += v;
      col_sums[j] += v;
    });
  }
  out.counts_ = std::move(counts);
  return out;
}

double ProximityScores::Score(NodeId u1, NodeId u2) const {
  const double count = counts_->At(u1, u2);  // checks u1 and u2
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
