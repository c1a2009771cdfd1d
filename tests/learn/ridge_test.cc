#include "src/learn/ridge.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
  EXPECT_EQ(prepared.num_rows(), 12u);
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

// --- Differential tests: the compressed kernels against the dense loops ---

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameBits(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameBits(got(i), want(i)))
        << "entry " << i << ": " << got(i) << " vs " << want(i);
  }
}

void ExpectSameBits(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < got.rows(); ++i) {
    for (size_t j = 0; j < got.cols(); ++j) {
      EXPECT_TRUE(SameBits(got(i, j), want(i, j)))
          << "(" << i << ", " << j << "): " << got(i, j) << " vs "
          << want(i, j);
    }
  }
}

/// A random value that is exactly zero, negative zero or a signed normal
/// draw, a third each.
double SignedOrZero(Rng& rng) {
  switch (rng.UniformInt(3)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    default:
      return rng.Normal();
  }
}

/// The design families the compressed kernels must reproduce bitwise.
enum class Family {
  kExactZeros,    // ~70% of entries exactly 0.0
  kNegativeZero,  // entries drawn from {0.0, −0.0, normal}
  kZeroRowsCols,  // whole rows and columns of zeros
  kBiasOnlyHalf,  // trailing bias column, half the rows bias-only
  kOneColumn,     // d = 1
  kNoRows,        // |H| = 0
};

Matrix FamilyDesign(Family family, uint64_t seed) {
  Rng rng(seed);
  switch (family) {
    case Family::kExactZeros: {
      Matrix x(41, 6);
      for (size_t i = 0; i < x.rows(); ++i) {
        for (size_t j = 0; j < x.cols(); ++j) {
          if (rng.Bernoulli(0.3)) x(i, j) = rng.Normal();
        }
      }
      return x;
    }
    case Family::kNegativeZero: {
      Matrix x(37, 5);
      for (size_t i = 0; i < x.rows(); ++i) {
        for (size_t j = 0; j < x.cols(); ++j) x(i, j) = SignedOrZero(rng);
      }
      return x;
    }
    case Family::kZeroRowsCols: {
      Matrix x(30, 7);
      for (size_t i = 0; i < x.rows(); ++i) {
        if (i % 4 == 1) continue;  // all-zero row
        for (size_t j = 0; j < x.cols(); ++j) {
          if (j == 0 || j == 4) continue;  // all-zero columns
          x(i, j) = rng.Bernoulli(0.5) ? rng.Normal() : -0.0;
        }
      }
      return x;
    }
    case Family::kBiasOnlyHalf: {
      Matrix x(64, 10);
      for (size_t i = 0; i < x.rows(); ++i) {
        x(i, 9) = 1.0;
        if (rng.Bernoulli(0.5)) continue;
        for (size_t j = 0; j < 9; ++j) {
          if (rng.Bernoulli(0.15)) x(i, j) = rng.UniformDouble();
        }
      }
      return x;
    }
    case Family::kOneColumn: {
      Matrix x(25, 1);
      for (size_t i = 0; i < x.rows(); ++i) x(i, 0) = SignedOrZero(rng);
      return x;
    }
    case Family::kNoRows:
      return Matrix(0, 4);
  }
  return Matrix();
}

/// Label or weight vectors of length n: signed draws with ±0.0 mixed in,
/// {0, 1} labels, and all zeros (with one −0.0 among them).
std::vector<Vector> SignedVectors(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vector mixed(n), labels(n), zeros(n);
  for (size_t i = 0; i < n; ++i) {
    mixed(i) = SignedOrZero(rng);
    labels(i) = rng.Bernoulli(0.3) ? 1.0 : 0.0;
  }
  if (n > 0) zeros(n / 2) = -0.0;
  return {mixed, labels, zeros};
}

class CompressedKernelTest : public ::testing::TestWithParam<Family> {};

TEST_P(CompressedKernelTest, BitwiseEqualsDenseLoops) {
  const Matrix x = FamilyDesign(GetParam(), 31);
  const double c = 1.7;
  ThreadPool pool(3);
  RidgePrepared serial = RidgePrepared::Create(x);
  RidgePrepared pooled = RidgePrepared::Create(x, &pool);
  ExpectSameBits(serial.gram(), x.Gram());
  ExpectSameBits(pooled.gram(), x.Gram());

  Matrix a = x.Gram() * c;
  a.AddDiagonal(1.0);
  auto reference = CholeskyFactor::Factor(a);
  ASSERT_TRUE(reference.ok());
  for (const RidgePrepared* prepared : {&serial, &pooled}) {
    auto solver = prepared->SolverFor(c);
    ASSERT_TRUE(solver.ok());
    ASSERT_EQ(solver.value().num_rows(), x.rows());
    ASSERT_EQ(solver.value().num_features(), x.cols());
    for (const Vector& y : SignedVectors(x.rows(), 32)) {
      Vector want = reference.value().Solve(x.TransposeMatVec(y));
      want *= c;
      ExpectSameBits(solver.value().Solve(y), want);
    }
    for (const Vector& w : SignedVectors(x.cols(), 33)) {
      ExpectSameBits(solver.value().Predict(w), x.MatVec(w));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CompressedKernelTest,
    ::testing::Values(Family::kExactZeros, Family::kNegativeZero,
                      Family::kZeroRowsCols, Family::kBiasOnlyHalf,
                      Family::kOneColumn, Family::kNoRows));

TEST(RidgeSolverTest, NonFiniteEntryFailsSolverFor) {
  const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  const Matrix base = FamilyDesign(Family::kBiasOnlyHalf, 34);
  // The first entry, a middle feature entry and the last row's bias.
  const std::pair<size_t, size_t> kPlaces[] = {
      {0, 0}, {base.rows() / 2, 4}, {base.rows() - 1, base.cols() - 1}};
  for (double v : kNonFinite) {
    for (const auto& [i, j] : kPlaces) {
      Matrix x = base;
      x(i, j) = v;
      auto solver = RidgePrepared::Create(x).SolverFor(1.0);
      ASSERT_FALSE(solver.ok()) << v << " at (" << i << ", " << j << ")";
      EXPECT_NE(solver.status().message().find("not positive definite"),
                std::string::npos);
    }
  }
}

TEST(RidgeSolverTest, OutlivesItsDesignMatrix) {
  auto x = std::make_unique<Matrix>(FamilyDesign(Family::kBiasOnlyHalf, 35));
  const Matrix copy = *x;
  auto solver = RidgeSolver::Create(*x, 2.0);
  ASSERT_TRUE(solver.ok());
  x.reset();  // the solver keeps only its compressed copies

  auto reference = RidgeSolver::Create(copy, 2.0);
  ASSERT_TRUE(reference.ok());
  for (const Vector& y : SignedVectors(copy.rows(), 36)) {
    ExpectSameBits(solver.value().Solve(y), reference.value().Solve(y));
  }
  for (const Vector& w : SignedVectors(copy.cols(), 37)) {
    ExpectSameBits(solver.value().Predict(w), copy.MatVec(w));
  }
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
