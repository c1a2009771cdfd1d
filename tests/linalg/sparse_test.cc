#include "src/linalg/sparse.h"

#include <gtest/gtest.h>

#include "src/linalg/sparse_ops.h"

namespace activeiter {
namespace {

TEST(SparseTest, EmptyMatrix) {
  SparseMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.At(1, 2), 0.0);
}

TEST(SparseTest, FromTripletsBasic) {
  auto m = SparseMatrix::FromTriplets(2, 3, {{0, 1, 2.0}, {1, 2, -1.0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(m.At(1, 2), -1.0);
  EXPECT_EQ(m.At(0, 0), 0.0);
}

TEST(SparseTest, DuplicateTripletsAccumulate) {
  auto m = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.At(0, 0), 3.5);
}

TEST(SparseTest, CancellingDuplicatesAreDropped) {
  auto m = SparseMatrix::FromTriplets(1, 1, {{0, 0, 1.0}, {0, 0, -1.0}});
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(SparseTest, ColumnIndicesSortedWithinRows) {
  auto m = SparseMatrix::FromTriplets(
      1, 5, {{0, 4, 1.0}, {0, 0, 1.0}, {0, 2, 1.0}});
  const auto& cols = m.col_idx();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_LT(cols[0], cols[1]);
  EXPECT_LT(cols[1], cols[2]);
}

TEST(SparseTest, DenseRoundTrip) {
  Matrix dense(3, 3);
  dense(0, 0) = 1.0;
  dense(1, 2) = -4.0;
  dense(2, 1) = 0.5;
  dense(2, 2) = -0.0;  // compares equal to zero: not stored
  SparseMatrix sparse = CompressDense(dense);
  EXPECT_EQ(sparse.nnz(), 3u);
  EXPECT_EQ(Matrix::MaxAbsDiff(sparse.ToDense(), dense), 0.0);
}

TEST(SparseTest, IdentityHasUnitDiagonal) {
  SparseMatrix id = SparseMatrix::Identity(4);
  EXPECT_EQ(id.nnz(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(id.At(i, i), 1.0);
}

TEST(SparseTest, RowAndColSums) {
  auto m = SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 2, 3.0}});
  Vector rows = m.RowSums();
  EXPECT_EQ(rows(0), 3.0);
  EXPECT_EQ(rows(1), 3.0);
  Vector cols = m.ColSums();
  EXPECT_EQ(cols(0), 1.0);
  EXPECT_EQ(cols(1), 0.0);
  EXPECT_EQ(cols(2), 5.0);
  EXPECT_EQ(m.Sum(), 6.0);
}

TEST(SparseTest, ForEachVisitsAllEntries) {
  auto m = SparseMatrix::FromTriplets(2, 2, {{0, 1, 1.0}, {1, 0, 2.0}});
  size_t visits = 0;
  double total = 0.0;
  m.ForEach([&](size_t, size_t, double v) {
    ++visits;
    total += v;
  });
  EXPECT_EQ(visits, 2u);
  EXPECT_EQ(total, 3.0);
}

TEST(SparseTest, ForEachInRow) {
  auto m = SparseMatrix::FromTriplets(2, 3, {{1, 0, 5.0}, {1, 2, 7.0}});
  EXPECT_EQ(m.RowNnz(0), 0u);
  EXPECT_EQ(m.RowNnz(1), 2u);
  double total = 0.0;
  m.ForEachInRow(1, [&](size_t, double v) { total += v; });
  EXPECT_EQ(total, 12.0);
}

TEST(SparseTest, EqualsToleratesRepresentation) {
  auto a = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}});
  auto b = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0 + 1e-12}});
  EXPECT_TRUE(a.Equals(b, 1e-9));
  EXPECT_FALSE(a.Equals(b, 0.0));
  auto c = SparseMatrix::FromTriplets(2, 3, {{0, 0, 1.0}});
  EXPECT_FALSE(a.Equals(c));
}

TEST(SparseDeathTest, OutOfBoundsTripletDies) {
  EXPECT_DEATH(SparseMatrix::FromTriplets(1, 1, {{0, 1, 1.0}}), "bounds");
}

TEST(SparsePadTest, PaddedToGrowsWithEmptyRowsAndCols) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 1, 3.0}, {1, 0, 4.0}});
  SparseMatrix padded = m.PaddedTo(4, 5);
  EXPECT_EQ(padded.rows(), 4u);
  EXPECT_EQ(padded.cols(), 5u);
  EXPECT_EQ(padded.nnz(), 2u);
  EXPECT_EQ(padded.At(0, 1), 3.0);
  EXPECT_EQ(padded.At(1, 0), 4.0);
  EXPECT_EQ(padded.RowNnz(2), 0u);
  EXPECT_EQ(padded.RowNnz(3), 0u);
  // Sums unchanged: new rows/cols are empty.
  EXPECT_EQ(padded.Sum(), m.Sum());
  EXPECT_EQ(padded.RowSums()(0), 3.0);
  EXPECT_EQ(padded.ColSums().size(), 5u);
}

TEST(SparsePadDeathTest, ShrinkDies) {
  SparseMatrix m(3, 3);
  EXPECT_DEATH(m.PaddedTo(2, 3), "grows");
}

}  // namespace
}  // namespace activeiter
