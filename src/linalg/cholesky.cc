#include "src/linalg/cholesky.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.h"

namespace activeiter {
namespace {

// The old file-local atomics, migrated onto the default MetricsRegistry so
// the serving stack's --metrics_json sees them for free. Each lookup runs
// once (function-local static); every increment stays one relaxed atomic
// add, exactly the previous cost.
Counter& FactorCounter() {
  static Counter* counter = MetricsRegistry::Default().GetCounter(
      "linalg.cholesky.factorisations");
  return *counter;
}

}  // namespace

uint64_t CholeskyFactor::TotalFactorCount() { return FactorCounter().value(); }

Result<CholeskyFactor> CholeskyFactor::Factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::InvalidArgument(
          "matrix is not positive definite (pivot <= 0)");
    }
    double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / ljj;
    }
  }
  FactorCounter().Increment();
  return CholeskyFactor(std::move(l));
}

Vector CholeskyFactor::Solve(const Vector& b) const {
  const size_t n = dim();
  ACTIVEITER_CHECK(b.size() == n);
  // Forward substitution L z = b: row i of L is read contiguously.
  Vector z(n);
  for (size_t i = 0; i < n; ++i) {
    const double* l_row = l_.row_data(i);
    double acc = b(i);
    for (size_t k = 0; k < i; ++k) acc -= l_row[k] * z(k);
    z(i) = acc / l_row[i];
  }
  // Backward substitution Lᵀ x = z, right-looking: once x(i) is final it is
  // eliminated from every remaining equation via row i of L (contiguous),
  // instead of gathering a strided column per output entry.
  Vector x = std::move(z);
  for (size_t i = n; i-- > 0;) {
    const double* l_row = l_.row_data(i);
    x(i) /= l_row[i];
    const double xi = x(i);
    for (size_t k = 0; k < i; ++k) x(k) -= l_row[k] * xi;
  }
  return x;
}

Matrix CholeskyFactor::SolveMatrix(const Matrix& b) const {
  const size_t n = dim();
  ACTIVEITER_CHECK(b.rows() == n);
  const size_t nrhs = b.cols();
  Matrix x = b;
  // Right-hand sides are independent, so the tile split cannot change any
  // per-column arithmetic order; it only keeps the active n×tile panel of
  // the working copy cache-resident while the substitutions stream rows of
  // L over it. 64 columns ≈ half a 4 KiB page per matrix row.
  constexpr size_t kRhsTile = 64;
  for (size_t jb = 0; jb < nrhs; jb += kRhsTile) {
    const size_t je = std::min(jb + kRhsTile, nrhs);
    const size_t width = je - jb;
    // Forward substitution L Z = B on the tile.
    for (size_t i = 0; i < n; ++i) {
      const double* l_row = l_.row_data(i);
      double* x_i = x.row_data(i) + jb;
      for (size_t k = 0; k < i; ++k) {
        const double lik = l_row[k];
        const double* x_k = x.row_data(k) + jb;
        for (size_t j = 0; j < width; ++j) x_i[j] -= lik * x_k[j];
      }
      const double diag = l_row[i];
      for (size_t j = 0; j < width; ++j) x_i[j] /= diag;
    }
    // Backward substitution Lᵀ X = Z, right-looking as in Solve().
    for (size_t i = n; i-- > 0;) {
      const double* l_row = l_.row_data(i);
      double* x_i = x.row_data(i) + jb;
      for (size_t j = 0; j < width; ++j) x_i[j] /= l_row[i];
      for (size_t k = 0; k < i; ++k) {
        const double lik = l_row[k];
        double* x_k = x.row_data(k) + jb;
        for (size_t j = 0; j < width; ++j) x_k[j] -= lik * x_i[j];
      }
    }
  }
  return x;
}

Result<Vector> SolveSpd(const Matrix& a, const Vector& b) {
  auto factor = CholeskyFactor::Factor(a);
  if (!factor.ok()) return factor.status();
  return factor.value().Solve(b);
}

}  // namespace activeiter
