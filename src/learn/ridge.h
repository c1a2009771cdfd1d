// Ridge regression in the paper's closed form (§III-D, internal step 1-1):
//
//   w = c (I + c XᵀX)⁻¹ Xᵀ y
//
// which minimises (c/2)‖Xw − y‖² + (1/2)‖w‖². The alternating optimisation
// re-solves with a new y every internal iteration while X stays fixed, and
// the ActiveIter external loop re-enters the alternation with the same X
// after every query round. The solver state therefore splits in two:
//
//   RidgePrepared  — problem-invariant: X's stored entries, compressed once
//                    into CSR by rows and (one Transpose) by columns, and
//                    the Gram product XᵀX formed from each row's pairwise
//                    products;
//   RidgeSolver    — per-c: the Cholesky factorisation of I + cXᵀX derived
//                    from the cached Gram, reusable across arbitrary label
//                    vectors.
//
// Meta-diagram features are sparse: a fold's 20,400 × 30 X is ~6% nonzero
// and half its rows hold only the bias. Create takes X in CSR, or dense and
// reads it once (row blocks over a pool when given, identical to serial):
// a dense X may be destroyed as soon as Create returns. The
// compressed copies are shared (shared_ptr) by the RidgePrepared and by
// every solver derived from it, and each later pass costs O(nnz), not
// O(|H|·d):
//
//   XᵀX  — Σᵢ nnz(xᵢ)² over the row copy, once per Create;
//   Xᵀy  — the row copy's entries in rows whose label is nonzero;
//   Xw   — the column copy, column by column in ascending j.
//
// Bitwise contract. Every entry of XᵀX, Xᵀy and Xw sums its terms in
// ascending index order from +0.0, exactly as the dense reference loops
// Matrix::Gram, Matrix::TransposeMatVec and Matrix::MatVec do. The terms
// the compressed loops skip are products with an entry x = ±0. Such a
// product is ±0 when the other factor is finite, and adding ±0 never moves
// an accumulator that starts at +0.0 (it could only become −0.0 from
// −0.0 + −0.0, so it is never −0.0). So for finite X, y and w, the Gram,
// w and the scores are bitwise the dense loops'. A non-finite X never
// reaches Solve: its column's Gram diagonal is +inf or NaN, so SolverFor
// fails with a non-finite pivot.
//
// RidgeSolver::Create keeps the original one-shot API as a thin wrapper
// over the two-step path. Neither half is updated in place: a changed
// design matrix gets a new RidgePrepared (the serve layer refits once per
// drain), so G and its factor are always exactly what a fresh build forms.

#ifndef ACTIVEITER_LEARN_RIDGE_H_
#define ACTIVEITER_LEARN_RIDGE_H_

#include <memory>

#include "src/common/status.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/matrix.h"
#include "src/linalg/sparse.h"
#include "src/linalg/vector.h"

namespace activeiter {

class ThreadPool;
class RidgePrepared;

/// Solves the ridge normal equations of a fixed design matrix for one loss
/// weight c and arbitrary label vectors. Shares the compressed design with
/// the RidgePrepared it came from; the dense X is not referenced.
class RidgeSolver {
 public:
  /// One-shot construction: prepares the compressed design and its Gram
  /// product (row compression fanned out over `pool` when given) and
  /// factors for `c`. Fails if c ≤ 0 or the factorisation fails (a
  /// non-finite X; for finite X, I + cXᵀX is SPD for c > 0).
  static Result<RidgeSolver> Create(const Matrix& x, double c,
                                    ThreadPool* pool = nullptr);

  /// w = c (I + cXᵀX)⁻¹ Xᵀ y. `y` must have num_rows() entries.
  Vector Solve(const Vector& y) const;

  /// Scores ŷ = X w for the design matrix this solver was built from.
  /// `w` must have num_features() entries.
  Vector Predict(const Vector& w) const;

  double c() const { return c_; }
  size_t num_rows() const { return rows_->rows(); }
  size_t num_features() const { return rows_->cols(); }

 private:
  friend class RidgePrepared;

  RidgeSolver(std::shared_ptr<const SparseMatrix> rows,
              std::shared_ptr<const SparseMatrix> columns, double c,
              CholeskyFactor factor)
      : rows_(std::move(rows)),
        columns_(std::move(columns)),
        c_(c),
        factor_(std::move(factor)) {}

  std::shared_ptr<const SparseMatrix> rows_;     // X in CSR
  std::shared_ptr<const SparseMatrix> columns_;  // Xᵀ in CSR: X by columns
  double c_;
  CholeskyFactor factor_;
};

/// The factor-once state of a design matrix: X compressed and XᵀX computed
/// a single time, from which per-c solvers are derived without touching X
/// again.
class RidgePrepared {
 public:
  /// Shares X already in CSR (a serve shard's gather) as the row copy,
  /// transposes it (over `pool` when given) and forms the Gram product.
  static RidgePrepared Create(std::shared_ptr<const SparseMatrix> rows,
                              ThreadPool* pool = nullptr);
  /// The dense entry: CompressDense(x) (row blocks over `pool` when given,
  /// identical to serial), then the CSR entry.
  static RidgePrepared Create(const Matrix& x, ThreadPool* pool = nullptr);

  /// Derives the per-c solver: factors I + c·XᵀX from the cached Gram.
  /// One Cholesky factorisation, zero passes over X.
  Result<RidgeSolver> SolverFor(double c) const;

  const Matrix& gram() const { return gram_; }
  size_t num_rows() const { return rows_->rows(); }

 private:
  RidgePrepared(std::shared_ptr<const SparseMatrix> rows,
                std::shared_ptr<const SparseMatrix> columns, Matrix gram)
      : rows_(std::move(rows)),
        columns_(std::move(columns)),
        gram_(std::move(gram)) {}

  std::shared_ptr<const SparseMatrix> rows_;     // X in CSR
  std::shared_ptr<const SparseMatrix> columns_;  // Xᵀ in CSR: X by columns
  Matrix gram_;                                  // XᵀX
};

/// One-shot convenience wrapper.
Result<Vector> FitRidge(const Matrix& x, const Vector& y, double c);

}  // namespace activeiter

#endif  // ACTIVEITER_LEARN_RIDGE_H_
