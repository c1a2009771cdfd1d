#include "src/linalg/sparse_ops.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace activeiter {
namespace {

SparseMatrix RandomSparse(size_t rows, size_t cols, double density,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> trips;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.Bernoulli(density)) {
        trips.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                         rng.Normal()});
      }
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(trips));
}

TEST(SpGemmTest, MatchesDenseProduct) {
  SparseMatrix a = RandomSparse(6, 8, 0.3, 1);
  SparseMatrix b = RandomSparse(8, 5, 0.3, 2);
  Matrix expected = a.ToDense().MatMul(b.ToDense());
  Matrix actual = SpGemm(a, b).ToDense();
  EXPECT_LT(Matrix::MaxAbsDiff(actual, expected), 1e-10);
}

TEST(SpGemmTest, IdentityNeutral) {
  SparseMatrix a = RandomSparse(5, 5, 0.4, 3);
  SparseMatrix id = SparseMatrix::Identity(5);
  EXPECT_TRUE(SpGemm(a, id).Equals(a, 1e-12));
  EXPECT_TRUE(SpGemm(id, a).Equals(a, 1e-12));
}

TEST(SpGemmTest, EmptyOperandGivesEmptyResult) {
  SparseMatrix a(3, 4);
  SparseMatrix b = RandomSparse(4, 2, 0.5, 4);
  EXPECT_EQ(SpGemm(a, b).nnz(), 0u);
}

TEST(SpGemmTest, PathCountingSemantics) {
  // Adjacency of a 3-node chain 0->1->2: squared counts 2-step paths.
  auto adj = SparseMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 2, 1.0}});
  auto two_step = SpGemm(adj, adj);
  EXPECT_EQ(two_step.nnz(), 1u);
  EXPECT_EQ(two_step.At(0, 2), 1.0);
}

void ExpectBitwiseEqual(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.values(), b.values());  // bitwise: no tolerance
}

std::vector<Triplet> TripletsOf(const SparseMatrix& m) {
  std::vector<Triplet> trips;
  m.ForEach([&](size_t i, size_t j, double v) {
    trips.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j), v});
  });
  return trips;
}

/// Rows of `a` with at least one entry in a column of `changed_b_rows`
/// (rows of the product a·b reached by a change confined to those b rows),
/// merged with `changed_a_rows`.
std::vector<uint32_t> ReachedRows(const SparseMatrix& a,
                                  const std::vector<uint32_t>& changed_a_rows,
                                  const std::vector<uint32_t>& changed_b_rows) {
  std::vector<bool> mask(a.cols(), false);
  for (uint32_t r : changed_b_rows) mask[r] = true;
  std::vector<bool> out(a.rows(), false);
  for (uint32_t r : changed_a_rows) out[r] = true;
  a.ForEach([&](size_t i, size_t j, double) {
    if (mask[j]) out[i] = true;
  });
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < a.rows(); ++i) {
    if (out[i]) rows.push_back(i);
  }
  return rows;
}

TEST(SpGemmRowUpdateTest, EmptyRowListReturnsBase) {
  SparseMatrix a = RandomSparse(10, 8, 0.3, 21);
  SparseMatrix b = RandomSparse(8, 6, 0.3, 22);
  SparseMatrix base = SpGemm(a, b);
  ExpectBitwiseEqual(SpGemmRowUpdate(base, a, b, {}), base);
}

TEST(SpGemmRowUpdateTest, BitwiseMatchesFullProductAfterRowChanges) {
  SparseMatrix a = RandomSparse(30, 20, 0.2, 23);
  SparseMatrix b = RandomSparse(20, 25, 0.2, 24);
  SparseMatrix base = SpGemm(a, b);

  // Mutate a handful of A rows: new entries in rows 3 and 17, all of row 9
  // rescaled (so entries vanish from the product support too).
  std::vector<Triplet> trips;
  for (const Triplet& t : TripletsOf(a)) {
    if (t.row == 9) continue;
    trips.push_back(t);
  }
  trips.push_back({3, 0, 2.5});
  trips.push_back({17, 19, -1.0});
  trips.push_back({9, 4, 0.75});
  SparseMatrix a2 = SparseMatrix::FromTriplets(30, 20, std::move(trips));

  const std::vector<uint32_t> changed = {3, 9, 17};
  ExpectBitwiseEqual(SpGemmRowUpdate(base, a2, b, changed), SpGemm(a2, b));
}

TEST(SpGemmRowUpdateTest, BSideChangesViaReachedRows) {
  SparseMatrix a = RandomSparse(40, 30, 0.15, 25);
  SparseMatrix b = RandomSparse(30, 35, 0.15, 26);
  SparseMatrix base = SpGemm(a, b);

  // Change two rows of B; every A row reading them must be recomputed.
  std::vector<Triplet> trips = TripletsOf(b);
  trips.push_back({5, 1, 3.0});
  trips.push_back({28, 34, -0.5});
  SparseMatrix b2 = SparseMatrix::FromTriplets(30, 35, std::move(trips));

  std::vector<uint32_t> rows = ReachedRows(a, {}, {5, 28});
  ExpectBitwiseEqual(SpGemmRowUpdate(base, a, b2, rows), SpGemm(a, b2));
}

TEST(SpGemmRowUpdateTest, SupersetRowListIsHarmless) {
  SparseMatrix a = RandomSparse(20, 15, 0.25, 27);
  SparseMatrix b = RandomSparse(15, 10, 0.25, 28);
  SparseMatrix base = SpGemm(a, b);
  std::vector<Triplet> trips = TripletsOf(a);
  trips.push_back({7, 2, 1.5});
  SparseMatrix a2 = SparseMatrix::FromTriplets(20, 15, std::move(trips));
  // Every row listed: degenerates to a full recompute, still bitwise-equal.
  std::vector<uint32_t> all;
  for (uint32_t i = 0; i < 20; ++i) all.push_back(i);
  ExpectBitwiseEqual(SpGemmRowUpdate(base, a2, b, all), SpGemm(a2, b));
}

TEST(SpGemmRowUpdateTest, GrownUniverseSplicesOverPaddedBase) {
  // The delta-engine shape: universes grow, the old product is padded, the
  // new rows (plus any reached old rows) are recomputed.
  SparseMatrix a = RandomSparse(12, 9, 0.3, 29);
  SparseMatrix b = RandomSparse(9, 7, 0.3, 30);
  SparseMatrix base = SpGemm(a, b).PaddedTo(14, 7);
  std::vector<Triplet> trips = TripletsOf(a);
  trips.push_back({12, 0, 1.0});
  trips.push_back({13, 8, 2.0});
  SparseMatrix a2 = SparseMatrix::FromTriplets(14, 9, std::move(trips));
  ExpectBitwiseEqual(SpGemmRowUpdate(base, a2, b, {12, 13}), SpGemm(a2, b));
}

TEST(SpGemmRowUpdateTest, PooledBitwiseMatchesSerial) {
  ThreadPool pool(4);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    SparseMatrix a = RandomSparse(50, 40, 0.1, 31 + seed * 2);
    SparseMatrix b = RandomSparse(40, 45, 0.1, 32 + seed * 2);
    SparseMatrix base = SpGemm(a, b);
    std::vector<Triplet> trips = TripletsOf(a);
    trips.push_back({static_cast<uint32_t>(seed * 11 % 50), 3, 4.0});
    SparseMatrix a2 = SparseMatrix::FromTriplets(50, 40, std::move(trips));
    std::vector<uint32_t> rows = {static_cast<uint32_t>(seed * 11 % 50)};
    SparseMatrix serial = SpGemmRowUpdate(base, a2, b, rows);
    SparseMatrix pooled = SpGemmRowUpdate(base, a2, b, rows, &pool);
    ExpectBitwiseEqual(serial, pooled);
    ExpectBitwiseEqual(serial, SpGemm(a2, b));
  }
}

TEST(TransposeTest, MatchesDense) {
  SparseMatrix a = RandomSparse(4, 7, 0.3, 5);
  EXPECT_LT(Matrix::MaxAbsDiff(Transpose(a).ToDense(),
                               a.ToDense().Transpose()),
            1e-12);
}

TEST(TransposeTest, Involution) {
  SparseMatrix a = RandomSparse(5, 6, 0.4, 6);
  EXPECT_TRUE(Transpose(Transpose(a)).Equals(a, 0.0));
}

TEST(HadamardTest, MatchesElementwise) {
  SparseMatrix a = RandomSparse(5, 5, 0.5, 7);
  SparseMatrix b = RandomSparse(5, 5, 0.5, 8);
  SparseMatrix h = Hadamard(a, b);
  Matrix da = a.ToDense(), db = b.ToDense();
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(h.At(i, j), da(i, j) * db(i, j), 1e-12);
    }
  }
}

TEST(HadamardTest, SupportIsIntersection) {
  auto a = SparseMatrix::FromTriplets(2, 2, {{0, 0, 2.0}, {0, 1, 3.0}});
  auto b = SparseMatrix::FromTriplets(2, 2, {{0, 1, 4.0}, {1, 1, 5.0}});
  SparseMatrix h = Hadamard(a, b);
  EXPECT_EQ(h.nnz(), 1u);
  EXPECT_EQ(h.At(0, 1), 12.0);
}

/// rows×cols counts: up to `max_per_row` entries in a row (0 leaves it
/// empty), values 1–3 — the positive small integers the face-splitting
/// identity is exact on.
SparseMatrix RandomCounts(size_t rows, size_t cols, size_t max_per_row,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> trips;
  for (size_t i = 0; i < rows; ++i) {
    const size_t count = rng.UniformInt(max_per_row + 1);
    for (size_t t = 0; t < count; ++t) {
      trips.push_back({static_cast<uint32_t>(i),
                       static_cast<uint32_t>(rng.UniformInt(cols)),
                       static_cast<double>(1 + rng.UniformInt(3))});
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(trips));
}

/// Branches Xᵢ·Yᵢ of a stack (X: left posts × attributes, Y: attributes ×
/// right posts).
struct Branches {
  std::vector<SparseMatrix> x, y;

  /// One branch per attribute universe `attrs[i]`, each post carrying up
  /// to `per_post` attributes of it.
  static Branches Random(size_t left, size_t right,
                         const std::vector<size_t>& attrs, size_t per_post,
                         uint64_t seed) {
    Branches b;
    for (size_t i = 0; i < attrs.size(); ++i) {
      b.x.push_back(RandomCounts(left, attrs[i], per_post, seed + 2 * i));
      b.y.push_back(Transpose(
          RandomCounts(right, attrs[i], per_post, seed + 2 * i + 1)));
    }
    return b;
  }

  static std::vector<const SparseMatrix*> Ptrs(
      const std::vector<SparseMatrix>& ms) {
    std::vector<const SparseMatrix*> out;
    for (const SparseMatrix& m : ms) out.push_back(&m);
    return out;
  }

  SparseMatrix FaceSplit(ThreadPool* pool = nullptr) const {
    return FaceSplitHadamard(Ptrs(x), Ptrs(y), pool);
  }

  /// The definition: every branch product in full, then a Hadamard fold.
  SparseMatrix Reference() const {
    SparseMatrix acc = SpGemm(x[0], y[0]);
    for (size_t i = 1; i < x.size(); ++i) {
      acc = Hadamard(acc, SpGemm(x[i], y[i]));
    }
    return acc;
  }
};

TEST(FaceSplitHadamardTest, MatchesHadamardOfProductsBitwise) {
  // One attribute per post (timestamps, locations) and several (words);
  // RandomCounts leaves some posts without any, i.e. empty rows.
  for (size_t per_post : {1u, 4u}) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      Branches b = Branches::Random(40, 35, {9, 6}, per_post,
                                    100 * seed + per_post);
      SCOPED_TRACE(testing::Message() << "per_post " << per_post << " seed "
                                      << seed);
      ExpectBitwiseEqual(b.FaceSplit(), b.Reference());
    }
  }
}

TEST(FaceSplitHadamardTest, ThreeBranchesAndOneBranch) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Branches three = Branches::Random(30, 30, {5, 7, 4}, 3, 500 + seed);
    ExpectBitwiseEqual(three.FaceSplit(), three.Reference());
    Branches one = Branches::Random(30, 30, {6}, 3, 600 + seed);
    ExpectBitwiseEqual(one.FaceSplit(), one.Reference());
  }
}

TEST(FaceSplitHadamardTest, EmptyOperandsGiveEmptyResult) {
  Branches b = Branches::Random(12, 9, {4, 5}, 2, 7);
  b.x[1] = SparseMatrix(12, 5);
  SparseMatrix out = b.FaceSplit();
  EXPECT_EQ(out.rows(), 12u);
  EXPECT_EQ(out.cols(), 9u);
  EXPECT_EQ(out.nnz(), 0u);
  ExpectBitwiseEqual(out, b.Reference());
}

TEST(FaceSplitHadamardTest, PooledMatchesSerial) {
  ThreadPool pool(4);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Branches b = Branches::Random(600, 500, {40, 60}, 3, 900 + seed);
    SparseMatrix serial = b.FaceSplit();
    ExpectBitwiseEqual(b.FaceSplit(&pool), serial);
    ExpectBitwiseEqual(serial, b.Reference());
  }
}

TEST(FaceSplitHadamardTest, AttributeUniversesBeyondThirtyTwoBits) {
  // |T|·|L| = 10¹⁰ > 2³². With |L| = 100000, the naive 32-bit key
  // t·|L| + l maps (42950, 0) and (0, 32704) to the same value
  // (42950·100000 = 2³² + 32704), which would pair left post 0 with right
  // post 1. The correct result keeps the two tuples apart.
  const size_t kT = 100000, kL = 100000;
  std::vector<Triplet> x1 = {{0, 42950, 1.0}, {1, 0, 1.0}};
  std::vector<Triplet> x2 = {{0, 0, 1.0}, {1, 32704, 1.0}};
  std::vector<Triplet> y1t = {{0, 42950, 1.0}, {1, 0, 1.0}};
  std::vector<Triplet> y2t = {{0, 0, 1.0}, {1, 32704, 1.0}};
  // Random posts on top, crowded into the universes' upper ends.
  Rng rng(31);
  for (uint32_t post = 2; post < 300; ++post) {
    for (auto* side : {&x1, &x2, &y1t, &y2t}) {
      const size_t universe = (side == &x1 || side == &y1t) ? kT : kL;
      for (uint64_t t = rng.UniformInt(3); t > 0; --t) {
        side->push_back({post,
                         static_cast<uint32_t>(universe - 1 -
                                               rng.UniformInt(50)),
                         static_cast<double>(1 + rng.UniformInt(3))});
      }
    }
  }
  Branches b;
  b.x = {SparseMatrix::FromTriplets(300, kT, x1),
         SparseMatrix::FromTriplets(300, kL, x2)};
  b.y = {Transpose(SparseMatrix::FromTriplets(300, kT, y1t)),
         Transpose(SparseMatrix::FromTriplets(300, kL, y2t))};
  SparseMatrix out = b.FaceSplit();
  EXPECT_EQ(out.At(0, 0), 1.0);
  EXPECT_EQ(out.At(1, 1), 1.0);
  EXPECT_EQ(out.At(0, 1), 0.0);
  EXPECT_EQ(out.At(1, 0), 0.0);
  ExpectBitwiseEqual(out, b.Reference());
}

TEST(AddTest, MatchesDense) {
  SparseMatrix a = RandomSparse(4, 4, 0.4, 9);
  SparseMatrix b = RandomSparse(4, 4, 0.4, 10);
  EXPECT_LT(Matrix::MaxAbsDiff(Add(a, b).ToDense(),
                               a.ToDense() + b.ToDense()),
            1e-12);
}

TEST(ScaleTest, MultipliesValues) {
  auto a = SparseMatrix::FromTriplets(1, 2, {{0, 0, 2.0}, {0, 1, -3.0}});
  SparseMatrix s = Scale(a, -2.0);
  EXPECT_EQ(s.At(0, 0), -4.0);
  EXPECT_EQ(s.At(0, 1), 6.0);
}

TEST(SpMvTest, MatchesDense) {
  SparseMatrix a = RandomSparse(6, 4, 0.5, 11);
  Vector x = {1.0, -1.0, 2.0, 0.5};
  Vector fast = SpMv(a, x);
  Vector slow = a.ToDense().MatVec(x);
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(fast(i), slow(i), 1e-12);
}

TEST(BinarizeTest, AllValuesBecomeOne) {
  auto a = SparseMatrix::FromTriplets(2, 2, {{0, 0, 7.0}, {1, 1, -2.0}});
  SparseMatrix b = Binarize(a);
  EXPECT_EQ(b.At(0, 0), 1.0);
  EXPECT_EQ(b.At(1, 1), 1.0);
  EXPECT_EQ(b.nnz(), 2u);
}

// The definition: one (i, j, 1.0) triplet per stored entry of `a`.
void ExpectBinarizeMatchesTriplets(const SparseMatrix& a) {
  std::vector<Triplet> trips;
  a.ForEach([&](size_t i, size_t j, double) {
    trips.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j), 1.0});
  });
  const SparseMatrix want =
      SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(trips));
  const SparseMatrix got = Binarize(a);
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  EXPECT_EQ(got.values(), want.values());
}

TEST(BinarizeTest, MatchesTripletDefinitionOnRandomMatrices) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ExpectBinarizeMatchesTriplets(
        RandomSparse(3 + seed % 7, 2 + seed % 5, 0.1 * (seed % 8), seed));
  }
  ExpectBinarizeMatchesTriplets(SparseMatrix());
  ExpectBinarizeMatchesTriplets(SparseMatrix(4, 3));
}

TEST(BinarizeTest, ExplicitlyStoredZeroBecomesOne) {
  // Row 0 stores (0, 1) = 0.0; row 1 is empty; row 2 stores two entries.
  auto a = SparseMatrix::FromCsr(3, 3, {0, 1, 1, 3}, {1, 0, 2},
                                 {0.0, -4.0, 2.5});
  ExpectBinarizeMatchesTriplets(a);
  SparseMatrix b = Binarize(a);
  EXPECT_EQ(b.nnz(), 3u);
  EXPECT_EQ(b.At(0, 1), 1.0);
}

TEST(MaskBySupportTest, KeepsOnlySupportedEntries) {
  auto a = SparseMatrix::FromTriplets(2, 2,
                                      {{0, 0, 3.0}, {0, 1, 4.0}, {1, 0, 5.0}});
  auto support = SparseMatrix::FromTriplets(2, 2, {{0, 1, 9.0}});
  SparseMatrix masked = MaskBySupport(a, support);
  EXPECT_EQ(masked.nnz(), 1u);
  EXPECT_EQ(masked.At(0, 1), 4.0);  // value kept, support value ignored
}

TEST(SparseOpsDeathTest, ShapeMismatchesDie) {
  SparseMatrix a(2, 3), b(2, 3);
  EXPECT_DEATH(SpGemm(a, b), "shape");
  SparseMatrix c(3, 3);
  EXPECT_DEATH(Hadamard(a, c), "shape");
}

// Property sweep: associativity of SpGemm across random shapes.
class SpGemmAssociativitySweep : public ::testing::TestWithParam<int> {};

TEST_P(SpGemmAssociativitySweep, Associative) {
  int s = GetParam();
  SparseMatrix a = RandomSparse(4 + s, 6, 0.3, 100 + s);
  SparseMatrix b = RandomSparse(6, 5 + s, 0.3, 200 + s);
  SparseMatrix c = RandomSparse(5 + s, 3, 0.3, 300 + s);
  SparseMatrix left = SpGemm(SpGemm(a, b), c);
  SparseMatrix right = SpGemm(a, SpGemm(b, c));
  EXPECT_TRUE(left.Equals(right, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpGemmAssociativitySweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8));

}  // namespace
}  // namespace activeiter
