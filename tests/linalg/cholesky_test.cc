#include "src/linalg/cholesky.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace activeiter {
namespace {

/// Random SPD matrix A = BᵀB + εI.
Matrix RandomSpd(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) b(i, j) = rng.Normal();
  }
  Matrix a = b.Gram();
  a.AddDiagonal(0.5);
  return a;
}

TEST(CholeskyTest, SolvesIdentity) {
  Matrix id = Matrix::Identity(4);
  Vector b = {1.0, 2.0, 3.0, 4.0};
  auto factor = CholeskyFactor::Factor(id);
  ASSERT_TRUE(factor.ok());
  Vector x = factor.value().Solve(b);
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(x(i), b(i), 1e-14);
}

TEST(CholeskyTest, SolveSatisfiesSystem) {
  Matrix a = RandomSpd(8, 1);
  Vector b(8);
  for (size_t i = 0; i < 8; ++i) b(i) = static_cast<double>(i) - 3.0;
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  Vector residual = a.MatVec(x.value()) - b;
  EXPECT_LT(residual.NormInf(), 1e-9);
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_FALSE(CholeskyFactor::Factor(a).ok());
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a = Matrix::Identity(2);
  a(1, 1) = -1.0;
  auto factor = CholeskyFactor::Factor(a);
  EXPECT_FALSE(factor.ok());
  EXPECT_EQ(factor.status().code(), StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0;  // rank 1
  EXPECT_FALSE(CholeskyFactor::Factor(a).ok());
}

TEST(CholeskyTest, SolveMatrixColumns) {
  Matrix a = RandomSpd(5, 2);
  Matrix b(5, 3);
  Rng rng(3);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) b(i, j) = rng.Normal();
  }
  auto factor = CholeskyFactor::Factor(a);
  ASSERT_TRUE(factor.ok());
  Matrix x = factor.value().SolveMatrix(b);
  Matrix residual = a.MatMul(x) - b;
  EXPECT_LT(residual.FrobeniusNorm(), 1e-8);
}

TEST(CholeskyTest, SolveMatrixBitwiseEqualsPerColumnSolve) {
  // The multi-RHS solver tiles right-hand sides but keeps each column's
  // arithmetic order identical to Solve(), so the results must be
  // bit-for-bit equal — including widths beyond one RHS tile (64).
  Matrix a = RandomSpd(9, 4);
  auto factor = CholeskyFactor::Factor(a);
  ASSERT_TRUE(factor.ok());
  for (size_t m : {1u, 5u, 64u, 70u}) {
    Matrix b(9, m);
    Rng rng(5 + m);
    for (size_t i = 0; i < 9; ++i) {
      for (size_t j = 0; j < m; ++j) b(i, j) = rng.Normal();
    }
    Matrix x = factor.value().SolveMatrix(b);
    for (size_t j = 0; j < m; ++j) {
      Vector col(9);
      for (size_t i = 0; i < 9; ++i) col(i) = b(i, j);
      Vector single = factor.value().Solve(col);
      for (size_t i = 0; i < 9; ++i) {
        ASSERT_EQ(x(i, j), single(i)) << "m=" << m << " col=" << j;
      }
    }
  }
}

// Property sweep over sizes: residuals stay small.
class CholeskySizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySizeSweep, ResidualIsTiny) {
  const size_t n = static_cast<size_t>(GetParam());
  Matrix a = RandomSpd(n, 40 + n);
  Vector b(n);
  Rng rng(50 + n);
  for (size_t i = 0; i < n; ++i) b(i) = rng.Normal();
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT((a.MatVec(x.value()) - b).NormInf(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeSweep,
                         ::testing::Values(1, 2, 3, 8, 16, 32, 64));

}  // namespace
}  // namespace activeiter
