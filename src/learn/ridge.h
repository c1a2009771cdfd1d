// Ridge regression in the paper's closed form (§III-D, internal step 1-1):
//
//   w = c (I + c XᵀX)⁻¹ Xᵀ y
//
// which minimises (c/2)‖Xw − y‖² + (1/2)‖w‖². The alternating optimisation
// re-solves with a new y every internal iteration while X stays fixed, and
// the ActiveIter external loop re-enters the alternation with the same X
// after every query round. The solver state therefore splits in two:
//
//   RidgePrepared  — problem-invariant: the O(|H|·d²) Gram product XᵀX,
//                    computed exactly once per design matrix (optionally
//                    pool-parallel, bitwise-identical to serial);
//   RidgeSolver    — per-c: the Cholesky factorisation of I + cXᵀX derived
//                    from the cached Gram, reusable across arbitrary label
//                    vectors.
//
// RidgeSolver::Create keeps the original one-shot API as a thin wrapper
// over the two-step path. Neither half is updated in place: a changed
// design matrix gets a new RidgePrepared (the serve layer refits once per
// drain), so G and its factor are always exactly what a fresh build forms.

#ifndef ACTIVEITER_LEARN_RIDGE_H_
#define ACTIVEITER_LEARN_RIDGE_H_

#include "src/common/status.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/matrix.h"
#include "src/linalg/vector.h"

namespace activeiter {

class ThreadPool;
class RidgePrepared;

/// Solves the ridge normal equations of a fixed design matrix for one loss
/// weight c and arbitrary label vectors. Holds a view of the design matrix:
/// `x` passed at construction must outlive the solver.
class RidgeSolver {
 public:
  /// One-shot construction: prepares the Gram product and factors for `c`.
  /// Fails if c ≤ 0 or the system is numerically singular (cannot happen
  /// for c > 0 since I + cXᵀX is SPD, but guarded anyway). The Gram build
  /// fans out over `pool` when given.
  static Result<RidgeSolver> Create(const Matrix& x, double c,
                                    ThreadPool* pool = nullptr);

  /// w = c (I + cXᵀX)⁻¹ Xᵀ y. `y` must have x.rows() entries.
  Vector Solve(const Vector& y) const;

  /// Scores ŷ = X w for the design matrix this solver was built from.
  Vector Predict(const Vector& w) const;

  double c() const { return c_; }
  size_t num_rows() const { return x_->rows(); }
  size_t num_features() const { return x_->cols(); }

 private:
  friend class RidgePrepared;

  RidgeSolver(const Matrix* x, double c, CholeskyFactor factor)
      : x_(x), c_(c), factor_(std::move(factor)) {}

  const Matrix* x_;  // non-owning
  double c_;
  CholeskyFactor factor_;
};

/// The factor-once state of a design matrix: XᵀX computed a single time,
/// from which per-c solvers are derived without touching X again. `x` must
/// outlive the prepared state and every solver derived from it (design
/// matrices are owned by the fold-level feature caches).
class RidgePrepared {
 public:
  /// Computes the Gram product, column-blocked over `pool` when given
  /// (bitwise-identical to the serial product for any pool).
  static RidgePrepared Create(const Matrix& x, ThreadPool* pool = nullptr);

  /// Derives the per-c solver: factors I + c·XᵀX from the cached Gram.
  /// One Cholesky factorisation, zero passes over X.
  Result<RidgeSolver> SolverFor(double c) const;

  const Matrix& x() const { return *x_; }
  const Matrix& gram() const { return gram_; }

 private:
  RidgePrepared(const Matrix* x, Matrix gram)
      : x_(x), gram_(std::move(gram)) {}

  const Matrix* x_;  // non-owning
  Matrix gram_;      // XᵀX
};

/// One-shot convenience wrapper.
Result<Vector> FitRidge(const Matrix& x, const Vector& y, double c);

}  // namespace activeiter

#endif  // ACTIVEITER_LEARN_RIDGE_H_
