#include "src/learn/ridge.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace activeiter {
namespace {

Matrix RandomDesign(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) x(i, j) = rng.Normal();
  }
  return x;
}

TEST(RidgeTest, RejectsNonPositiveC) {
  Matrix x(3, 2);
  EXPECT_FALSE(RidgeSolver::Create(x, 0.0).ok());
  EXPECT_FALSE(RidgeSolver::Create(x, -1.0).ok());
}

TEST(RidgeTest, ClosedFormMatchesNormalEquations) {
  // w must satisfy (I + cXᵀX) w = c Xᵀ y.
  Matrix x = RandomDesign(20, 4, 1);
  Vector y(20);
  Rng rng(2);
  for (size_t i = 0; i < 20; ++i) y(i) = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  const double c = 2.5;
  auto w = FitRidge(x, y, c);
  ASSERT_TRUE(w.ok());
  Matrix a = x.Gram() * c;
  a.AddDiagonal(1.0);
  Vector lhs = a.MatVec(w.value());
  Vector rhs = x.TransposeMatVec(y) * c;
  EXPECT_LT((lhs - rhs).NormInf(), 1e-9);
}

TEST(RidgeTest, ShrinksTowardZeroAsCDecreases) {
  Matrix x = RandomDesign(30, 3, 3);
  Vector y(30, 1.0);
  auto w_small = FitRidge(x, y, 1e-4);
  auto w_large = FitRidge(x, y, 10.0);
  ASSERT_TRUE(w_small.ok());
  ASSERT_TRUE(w_large.ok());
  EXPECT_LT(w_small.value().Norm2(), w_large.value().Norm2());
}

TEST(RidgeTest, RecoversPlantedLinearModel) {
  // With large c (weak regularisation) and clean linear labels, the fit
  // recovers the planted weights closely.
  Matrix x = RandomDesign(200, 3, 4);
  Vector planted = {1.5, -2.0, 0.5};
  Vector y(200);
  for (size_t i = 0; i < 200; ++i) y(i) = x.Row(i).Dot(planted);
  auto w = FitRidge(x, y, 1e6);
  ASSERT_TRUE(w.ok());
  EXPECT_LT((w.value() - planted).NormInf(), 1e-3);
}

TEST(RidgeTest, SolverReusableAcrossLabelVectors) {
  Matrix x = RandomDesign(15, 4, 5);
  auto solver = RidgeSolver::Create(x, 1.0);
  ASSERT_TRUE(solver.ok());
  Vector y1(15, 1.0);
  Vector y2(15, 0.0);
  Vector w1 = solver.value().Solve(y1);
  Vector w2 = solver.value().Solve(y2);
  // Zero labels => w = 0 (the minimiser of c/2‖Xw‖² + ½‖w‖²).
  EXPECT_LT(w2.Norm2(), 1e-12);
  EXPECT_GT(w1.Norm2(), 0.0);
  // Consistency with the one-shot API.
  auto w1_direct = FitRidge(x, y1, 1.0);
  ASSERT_TRUE(w1_direct.ok());
  EXPECT_LT((w1 - w1_direct.value()).NormInf(), 1e-12);
}

TEST(RidgeTest, PredictComputesXw) {
  Matrix x = RandomDesign(10, 2, 6);
  auto solver = RidgeSolver::Create(x, 1.0);
  ASSERT_TRUE(solver.ok());
  Vector w = {0.5, -1.0};
  Vector scores = solver.value().Predict(w);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(scores(i), x.Row(i).Dot(w), 1e-12);
  }
}

TEST(RidgeTest, SolutionMinimisesObjective) {
  // Perturbing the solution in any of a few random directions must not
  // decrease the objective c/2‖Xw − y‖² + ½‖w‖².
  Matrix x = RandomDesign(25, 3, 7);
  Vector y(25);
  Rng rng(8);
  for (size_t i = 0; i < 25; ++i) y(i) = rng.UniformDouble();
  const double c = 1.7;
  auto w = FitRidge(x, y, c);
  ASSERT_TRUE(w.ok());
  auto objective = [&](const Vector& v) {
    Vector r = x.MatVec(v) - y;
    return 0.5 * c * r.Dot(r) + 0.5 * v.Dot(v);
  };
  double base = objective(w.value());
  for (int t = 0; t < 10; ++t) {
    Vector perturbed = w.value();
    for (size_t j = 0; j < 3; ++j) perturbed(j) += rng.Normal(0.0, 0.01);
    EXPECT_GE(objective(perturbed), base - 1e-12);
  }
}

TEST(RidgePreparedTest, SolverForMatchesOneShotBitwise) {
  Matrix x = RandomDesign(50, 6, 11);
  Vector y(50);
  Rng rng(12);
  for (size_t i = 0; i < 50; ++i) y(i) = rng.Bernoulli(0.2) ? 1.0 : 0.0;

  RidgePrepared prepared = RidgePrepared::Create(x);
  for (double c : {0.1, 1.0, 7.5}) {
    auto derived = prepared.SolverFor(c);
    ASSERT_TRUE(derived.ok());
    auto one_shot = RidgeSolver::Create(x, c);
    ASSERT_TRUE(one_shot.ok());
    Vector w_derived = derived.value().Solve(y);
    Vector w_one_shot = one_shot.value().Solve(y);
    ASSERT_EQ(w_derived.size(), w_one_shot.size());
    for (size_t j = 0; j < w_derived.size(); ++j) {
      EXPECT_EQ(w_derived(j), w_one_shot(j)) << "c=" << c << " j=" << j;
    }
  }
}

TEST(RidgePreparedTest, SolverForRejectsNonPositiveC) {
  Matrix x = RandomDesign(10, 3, 13);
  RidgePrepared prepared = RidgePrepared::Create(x);
  EXPECT_FALSE(prepared.SolverFor(0.0).ok());
  EXPECT_FALSE(prepared.SolverFor(-2.0).ok());
}

TEST(RidgePreparedTest, GramIsDesignGram) {
  Matrix x = RandomDesign(12, 4, 14);
  RidgePrepared prepared = RidgePrepared::Create(x);
  EXPECT_EQ(Matrix::MaxAbsDiff(prepared.gram(), x.Gram()), 0.0);
  EXPECT_EQ(&prepared.x(), &x);
}

TEST(RidgePreparedTest, PooledPreparationBitwiseEqualsSerial) {
  Matrix x = RandomDesign(120, 8, 15);
  Vector y(120);
  Rng rng(16);
  for (size_t i = 0; i < 120; ++i) y(i) = rng.Bernoulli(0.3) ? 1.0 : 0.0;
  ThreadPool pool(4);
  RidgePrepared serial = RidgePrepared::Create(x);
  RidgePrepared pooled = RidgePrepared::Create(x, &pool);
  EXPECT_EQ(Matrix::MaxAbsDiff(serial.gram(), pooled.gram()), 0.0);
  auto ws = serial.SolverFor(1.0);
  auto wp = pooled.SolverFor(1.0);
  ASSERT_TRUE(ws.ok());
  ASSERT_TRUE(wp.ok());
  Vector a = ws.value().Solve(y);
  Vector b = wp.value().Solve(y);
  for (size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a(j), b(j));
}

// Property sweep: paper closed form w = c(I + cXᵀX)⁻¹Xᵀy holds for many c.
class RidgeCSweep : public ::testing::TestWithParam<double> {};

TEST_P(RidgeCSweep, NormalEquationsResidualTiny) {
  const double c = GetParam();
  Matrix x = RandomDesign(40, 5, 9);
  Vector y(40);
  Rng rng(10);
  for (size_t i = 0; i < 40; ++i) y(i) = rng.Bernoulli(0.3) ? 1.0 : 0.0;
  auto w = FitRidge(x, y, c);
  ASSERT_TRUE(w.ok());
  Matrix a = x.Gram() * c;
  a.AddDiagonal(1.0);
  Vector residual = a.MatVec(w.value()) - x.TransposeMatVec(y) * c;
  EXPECT_LT(residual.NormInf(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Weights, RidgeCSweep,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0, 100.0));

}  // namespace
}  // namespace activeiter
