#include "src/learn/ridge.h"

namespace activeiter {

RidgePrepared RidgePrepared::Create(const Matrix& x, ThreadPool* pool) {
  return RidgePrepared(&x, x.Gram(pool));
}

Result<RidgeSolver> RidgePrepared::SolverFor(double c) const {
  if (c <= 0.0) {
    return Status::InvalidArgument("ridge weight c must be > 0");
  }
  Matrix a = gram_ * c;  // cXᵀX
  a.AddDiagonal(1.0);    // I + cXᵀX
  auto factor = CholeskyFactor::Factor(a);
  if (!factor.ok()) return factor.status();
  return RidgeSolver(x_, c, std::move(factor).value());
}

Result<RidgeSolver> RidgeSolver::Create(const Matrix& x, double c,
                                        ThreadPool* pool) {
  if (c <= 0.0) {
    return Status::InvalidArgument("ridge weight c must be > 0");
  }
  return RidgePrepared::Create(x, pool).SolverFor(c);
}

Vector RidgeSolver::Solve(const Vector& y) const {
  ACTIVEITER_CHECK_MSG(y.size() == x_->rows(), "label vector size mismatch");
  Vector rhs = x_->TransposeMatVec(y);
  Vector w = factor_.Solve(rhs);
  w *= c_;
  return w;
}

Vector RidgeSolver::Predict(const Vector& w) const { return x_->MatVec(w); }

Result<Vector> FitRidge(const Matrix& x, const Vector& y, double c) {
  auto solver = RidgeSolver::Create(x, c);
  if (!solver.ok()) return solver.status();
  return solver.value().Solve(y);
}

}  // namespace activeiter
