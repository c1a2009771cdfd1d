#include "src/linalg/matrix.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace activeiter {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Normal();
  }
  return m;
}

TEST(MatrixTest, IdentityAndAccess) {
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id(0, 0), 1.0);
  EXPECT_EQ(id(0, 1), 0.0);
  EXPECT_EQ(id.rows(), 3u);
}

TEST(MatrixTest, TransposeInvolution) {
  Matrix m = RandomMatrix(4, 6, 1);
  EXPECT_EQ(Matrix::MaxAbsDiff(m.Transpose().Transpose(), m), 0.0);
}

TEST(MatrixTest, MatMulAgainstHandComputed) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7;  b(0, 1) = 8;
  b(1, 0) = 9;  b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  Matrix c = a.MatMul(b);
  EXPECT_EQ(c(0, 0), 58.0);
  EXPECT_EQ(c(0, 1), 64.0);
  EXPECT_EQ(c(1, 0), 139.0);
  EXPECT_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, IdentityIsMatMulNeutral) {
  Matrix m = RandomMatrix(5, 5, 2);
  Matrix id = Matrix::Identity(5);
  EXPECT_LT(Matrix::MaxAbsDiff(m.MatMul(id), m), 1e-12);
  EXPECT_LT(Matrix::MaxAbsDiff(id.MatMul(m), m), 1e-12);
}

TEST(MatrixTest, MatVecMatchesMatMul) {
  // Every entry is bitwise the row's own dot product (ascending column
  // order), including the empty matrix.
  for (size_t rows : {0u, 1u, 3u, 4u, 5u, 9u}) {
    SCOPED_TRACE(rows);
    Matrix m = RandomMatrix(rows, 7, 3 + rows);
    Vector v = {1.0, -2.0, 0.5, 3.25, -0.125, 1e-3, 7.0};
    Vector direct = m.MatVec(v);
    ASSERT_EQ(direct.size(), rows);
    Matrix vm(7, 1);
    for (size_t j = 0; j < 7; ++j) vm(j, 0) = v(j);
    Matrix via = m.MatMul(vm);
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(direct(i), m.Row(i).Dot(v));
      EXPECT_NEAR(direct(i), via(i, 0), 1e-12);
    }
  }
}

TEST(MatrixTest, TransposeMatVecMatchesExplicitTranspose) {
  Matrix m = RandomMatrix(6, 4, 4);
  Vector v(6);
  for (size_t i = 0; i < 6; ++i) v(i) = static_cast<double>(i) - 2.5;
  Vector fast = m.TransposeMatVec(v);
  Vector slow = m.Transpose().MatVec(v);
  for (size_t j = 0; j < 4; ++j) EXPECT_NEAR(fast(j), slow(j), 1e-12);
}

TEST(MatrixTest, GramMatchesExplicitProduct) {
  Matrix m = RandomMatrix(8, 5, 5);
  Matrix gram = m.Gram();
  Matrix slow = m.Transpose().MatMul(m);
  EXPECT_LT(Matrix::MaxAbsDiff(gram, slow), 1e-10);
}

TEST(MatrixTest, GramIsSymmetric) {
  Matrix gram = RandomMatrix(10, 6, 6).Gram();
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) EXPECT_EQ(gram(i, j), gram(j, i));
  }
}

TEST(MatrixTest, AddDiagonal) {
  Matrix m(3, 3);
  m.AddDiagonal(2.0);
  EXPECT_EQ(m(0, 0), 2.0);
  EXPECT_EQ(m(1, 1), 2.0);
  EXPECT_EQ(m(0, 1), 0.0);
}

TEST(MatrixTest, RowExtraction) {
  Matrix m = RandomMatrix(3, 4, 7);
  Vector r = m.Row(1);
  for (size_t j = 0; j < 4; ++j) EXPECT_EQ(r(j), m(1, j));
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_NEAR(m.FrobeniusNorm(), 5.0, 1e-12);
}

TEST(MatrixDeathTest, ShapeMismatchesDie) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_DEATH(a.MatMul(b), "shape");
  Vector v(2);
  EXPECT_DEATH(a.MatVec(v), "shape");
}

// Property sweep: (AB)ᵀ == BᵀAᵀ across shapes.
class MatMulTransposeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulTransposeSweep, TransposeOfProduct) {
  auto [n, k, m] = GetParam();
  Matrix a = RandomMatrix(n, k, 100 + n);
  Matrix b = RandomMatrix(k, m, 200 + m);
  Matrix lhs = a.MatMul(b).Transpose();
  Matrix rhs = b.Transpose().MatMul(a.Transpose());
  EXPECT_LT(Matrix::MaxAbsDiff(lhs, rhs), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulTransposeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 5), std::make_tuple(7, 8, 3),
                      std::make_tuple(12, 12, 12)));

}  // namespace
}  // namespace activeiter
