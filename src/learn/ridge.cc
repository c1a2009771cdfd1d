#include "src/learn/ridge.h"

#include "src/linalg/sparse_ops.h"

namespace activeiter {
namespace {

// XᵀX from each row's pairwise products: row i adds x_ij·x_ik to G(j, k)
// for its stored j ≤ k, so every entry sums in ascending row order. The
// upper triangle is then mirrored.
Matrix GramOfRows(const SparseMatrix& rows) {
  const size_t d = rows.cols();
  Matrix gram(d, d);
  const auto& ptr = rows.row_ptr();
  const auto& col = rows.col_idx();
  const auto& val = rows.values();
  for (size_t i = 0; i < rows.rows(); ++i) {
    for (size_t a = ptr[i]; a < ptr[i + 1]; ++a) {
      double* g = gram.row_data(col[a]);
      const double v = val[a];
      for (size_t b = a; b < ptr[i + 1]; ++b) g[col[b]] += v * val[b];
    }
  }
  for (size_t j = 0; j < d; ++j) {
    for (size_t k = j + 1; k < d; ++k) gram(k, j) = gram(j, k);
  }
  return gram;
}

}  // namespace

RidgePrepared RidgePrepared::Create(std::shared_ptr<const SparseMatrix> rows,
                                    ThreadPool* pool) {
  auto columns = std::make_shared<const SparseMatrix>(Transpose(*rows, pool));
  Matrix gram = GramOfRows(*rows);
  return RidgePrepared(std::move(rows), std::move(columns), std::move(gram));
}

RidgePrepared RidgePrepared::Create(const Matrix& x, ThreadPool* pool) {
  return Create(std::make_shared<const SparseMatrix>(CompressDense(x, pool)),
                pool);
}

Result<RidgeSolver> RidgePrepared::SolverFor(double c) const {
  if (c <= 0.0) {
    return Status::InvalidArgument("ridge weight c must be > 0");
  }
  Matrix a = gram_ * c;  // cXᵀX
  a.AddDiagonal(1.0);    // I + cXᵀX
  auto factor = CholeskyFactor::Factor(a);
  if (!factor.ok()) return factor.status();
  return RidgeSolver(rows_, columns_, c, std::move(factor).value());
}

Result<RidgeSolver> RidgeSolver::Create(const Matrix& x, double c,
                                        ThreadPool* pool) {
  if (c <= 0.0) {
    return Status::InvalidArgument("ridge weight c must be > 0");
  }
  return RidgePrepared::Create(x, pool).SolverFor(c);
}

Vector RidgeSolver::Solve(const Vector& y) const {
  ACTIVEITER_CHECK_MSG(y.size() == num_rows(), "label vector size mismatch");
  const auto& ptr = rows_->row_ptr();
  const auto& col = rows_->col_idx();
  const auto& val = rows_->values();
  Vector rhs(num_features());  // Xᵀy
  double* out = rhs.data();
  for (size_t i = 0; i < y.size(); ++i) {
    const double yi = y.data()[i];
    if (yi == 0.0) continue;
    for (size_t k = ptr[i]; k < ptr[i + 1]; ++k) out[col[k]] += val[k] * yi;
  }
  Vector w = factor_.Solve(rhs);
  w *= c_;
  return w;
}

Vector RidgeSolver::Predict(const Vector& w) const {
  ACTIVEITER_CHECK_MSG(w.size() == num_features(),
                       "weight vector size mismatch");
  // Column by column: each score gains x_ij·w_j in ascending j, and the
  // inner loop is a run over one column's stored rows.
  const auto& ptr = columns_->row_ptr();
  const auto& row = columns_->col_idx();
  const auto& val = columns_->values();
  Vector scores(num_rows());
  double* out = scores.data();
  for (size_t j = 0; j < w.size(); ++j) {
    const double wj = w.data()[j];
    for (size_t k = ptr[j]; k < ptr[j + 1]; ++k) out[row[k]] += val[k] * wj;
  }
  return scores;
}

Result<Vector> FitRidge(const Matrix& x, const Vector& y, double c) {
  auto solver = RidgeSolver::Create(x, c);
  if (!solver.ok()) return solver.status();
  return solver.value().Solve(y);
}

}  // namespace activeiter
