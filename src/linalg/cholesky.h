// Cholesky factorisation and SPD linear solves.
//
// Ridge regression (paper §III-D, internal step 1-1) needs
//   w = c (I + c XᵀX)⁻¹ Xᵀ y,
// i.e. the solution of an SPD system whose dimension is the feature count
// (≈30). A plain LLᵀ factorisation is exact, stable for λ > 0, and trivial
// at this size — cheap enough that the serve layer refactors once per drain.

#ifndef ACTIVEITER_LINALG_CHOLESKY_H_
#define ACTIVEITER_LINALG_CHOLESKY_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/linalg/matrix.h"
#include "src/linalg/vector.h"

namespace activeiter {

/// LLᵀ factorisation of a symmetric positive-definite matrix.
class CholeskyFactor {
 public:
  /// Factors `a`. Fails with InvalidArgument if `a` is not square or not
  /// numerically positive definite.
  static Result<CholeskyFactor> Factor(const Matrix& a);

  /// Solves A x = b for one right-hand side. Forward substitution is
  /// left-looking (row i of L read contiguously); backward substitution is
  /// right-looking — each finalised x(i) is eliminated from the remaining
  /// equations using row i of L — so both passes stream rows instead of
  /// striding down columns.
  Vector Solve(const Vector& b) const;

  /// Solves A X = B for all columns of B in one blocked pass: the
  /// substitution recurrences run over contiguous row panels of a working
  /// copy of B, tiled so the active panel stays cache-resident. Per
  /// right-hand side the arithmetic order is identical to Solve(), so the
  /// result is bitwise-equal to solving column-by-column.
  Matrix SolveMatrix(const Matrix& b) const;

  /// Process-wide count of successful factorisations (relaxed atomic).
  /// Tests diff this around a code path to pin down exactly how many
  /// factorisations it performed (the AlignmentSession reuse guarantee and
  /// the serve layer's one refit per shard per published epoch).
  static uint64_t TotalFactorCount();

  /// Always 0: factors are never updated in place. Kept for callers that
  /// still report the count.
  static uint64_t TotalRankOneUpdateCount() { return 0; }

  size_t dim() const { return l_.rows(); }

 private:
  explicit CholeskyFactor(Matrix l) : l_(std::move(l)) {}
  Matrix l_;  // lower triangular
};

/// Convenience: solves (A) x = b via Cholesky. `a` must be SPD.
Result<Vector> SolveSpd(const Matrix& a, const Vector& b);

}  // namespace activeiter

#endif  // ACTIVEITER_LINALG_CHOLESKY_H_
