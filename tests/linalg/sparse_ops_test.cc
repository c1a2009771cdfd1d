#include "src/linalg/sparse_ops.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "tests/linalg/csr_bitwise.h"

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

// ---------------------------------------------------------------------------
// Δ kernels: every one is checked bitwise against the full kernels it
// stands in for, over seeded integer matrices (the counts they carry).
// ---------------------------------------------------------------------------

/// now − before by definition: both entry lists summed by FromTriplets,
/// which drops the zeros.
SparseMatrix DeltaByDefinition(const SparseMatrix& now,
                               const SparseMatrix& before) {
  std::vector<Triplet> trips = TripletsOf(now);
  before.ForEach([&](size_t i, size_t j, double v) {
    trips.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j), -v});
  });
  return SparseMatrix::FromTriplets(now.rows(), now.cols(), std::move(trips));
}

/// `m` grown to rows×cols by a seeded edit: `edits` stored entries removed,
/// one whole row emptied, `edits` entries of 1–3 added at random (summing
/// onto an entry already stored changes its value), plus one in the last
/// row and one in the last column so the grown universes are used.
SparseMatrix Edited(const SparseMatrix& m, size_t rows, size_t cols,
                    size_t edits, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> trips = TripletsOf(m);
  for (size_t e = 0; e < edits && !trips.empty(); ++e) {
    trips.erase(trips.begin() +
                static_cast<ptrdiff_t>(rng.UniformInt(trips.size())));
  }
  if (m.rows() > 0) {
    const auto emptied = static_cast<uint32_t>(rng.UniformInt(m.rows()));
    trips.erase(std::remove_if(trips.begin(), trips.end(),
                               [&](const Triplet& t) {
                                 return t.row == emptied;
                               }),
                trips.end());
  }
  auto value = [&] { return static_cast<double>(1 + rng.UniformInt(3)); };
  for (size_t e = 0; e < edits; ++e) {
    trips.push_back({static_cast<uint32_t>(rng.UniformInt(rows)),
                     static_cast<uint32_t>(rng.UniformInt(cols)), value()});
  }
  trips.push_back({static_cast<uint32_t>(rows - 1),
                   static_cast<uint32_t>(rng.UniformInt(cols)), value()});
  trips.push_back({static_cast<uint32_t>(rng.UniformInt(rows)),
                   static_cast<uint32_t>(cols - 1), value()});
  return SparseMatrix::FromTriplets(rows, cols, std::move(trips));
}

uint64_t DefaultCounterValue(const char* name) {
  const Counter* c = MetricsRegistry::Default().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

TEST(AddDeltaTest, MergesEmptiedNewRowsAndColumns) {
  // Short rows, and rows of ~40 entries that a Δ entry or two changes.
  for (size_t per_row : {4u, 60u}) {
    for (uint64_t seed = 0; seed < 12; ++seed) {
      SCOPED_TRACE(testing::Message() << per_row << " per row, seed " << seed);
      const SparseMatrix before =
          RandomCounts(20, per_row == 4 ? 15 : 80, per_row, 40 + seed);
      const SparseMatrix now = Edited(before, 24, before.cols() + 3, 6,
                                      60 + seed);
      const SparseMatrix delta = DeltaByDefinition(now, before);
      EXPECT_TRUE(CsrBitwiseEqual(AddDelta(before, delta), now));
    }
  }
  // An empty Δ pads; a Δ over a base with no stored entry is the result.
  const SparseMatrix before = RandomCounts(9, 7, 3, 3);
  EXPECT_TRUE(CsrBitwiseEqual(AddDelta(before, SparseMatrix(12, 9)),
                              before.PaddedTo(12, 9)));
  const SparseMatrix fresh = RandomCounts(12, 9, 3, 4);
  EXPECT_TRUE(CsrBitwiseEqual(AddDelta(SparseMatrix(0, 0), fresh), fresh));
}

TEST(AddDeltaTest, CountsCopiedAndMergedRows) {
  // 6 rows, a Δ in rows 1 and 4: two merged, four copied unchanged.
  const SparseMatrix before = SparseMatrix::FromTriplets(
      6, 3, {{0, 0, 1.0}, {1, 1, 2.0}, {3, 2, 1.0}, {4, 0, 1.0}});
  const SparseMatrix delta =
      SparseMatrix::FromTriplets(6, 3, {{1, 1, -2.0}, {4, 2, 3.0}});
  const uint64_t spliced = DefaultCounterValue("linalg.spgemm.rows_spliced");
  const uint64_t merged = DefaultCounterValue("linalg.spgemm.rows_recomputed");
  const SparseMatrix out = AddDelta(before, delta);
  EXPECT_EQ(DefaultCounterValue("linalg.spgemm.rows_spliced") - spliced, 4u);
  EXPECT_EQ(DefaultCounterValue("linalg.spgemm.rows_recomputed") - merged,
            2u);
  EXPECT_EQ(out.RowNnz(1), 0u);  // emptied: 2 + (−2) is not stored
  EXPECT_EQ(out.At(4, 2), 3.0);
}

TEST(AddDeltaDeathTest, RejectsABaseLargerThanItsDelta) {
  EXPECT_DEATH(AddDelta(SparseMatrix(4, 4), SparseMatrix(3, 4)), "larger");
}

TEST(RowsDeltaTest, DiffsTheListedRowsOnly) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const SparseMatrix before = Binarize(RandomCounts(16, 12, 3, 70 + seed));
    const SparseMatrix now =
        Binarize(Edited(before, 19, 14, 4, 80 + seed));
    const SparseMatrix exact = DeltaByDefinition(now, before);
    std::vector<uint32_t> all(now.rows());
    for (uint32_t i = 0; i < now.rows(); ++i) all[i] = i;
    EXPECT_TRUE(CsrBitwiseEqual(RowsDelta(now, before, all), exact));
    // Only the rows the definition says changed, plus one unchanged row
    // (a duplicate insertion leaves no Δ).
    std::vector<uint32_t> listed;
    for (uint32_t i = 0; i < now.rows(); ++i) {
      if (exact.RowNnz(i) != 0 || i == 2) listed.push_back(i);
    }
    EXPECT_TRUE(CsrBitwiseEqual(RowsDelta(now, before, listed), exact));
  }
  const SparseMatrix m = RandomCounts(5, 5, 2, 9);
  EXPECT_EQ(RowsDelta(m, m, {0, 1, 2, 3, 4}).nnz(), 0u);
}

/// Checks SpGemmDelta's Δ of l·r from l_before·r_before, both as a matrix
/// and carried onto the old product, against the full products.
void ExpectProductDelta(const SparseMatrix& l_before,
                        const SparseMatrix& r_before, const SparseMatrix& l,
                        const SparseMatrix& r, bool left, bool right) {
  const SparseMatrix dl = DeltaByDefinition(l, l_before);
  const SparseMatrix dr = DeltaByDefinition(r, r_before);
  const SparseMatrix before = SpGemm(l_before, r_before);
  const SparseMatrix now = SpGemm(l, r);
  const SparseMatrix delta =
      SpGemmDelta(l, left ? &dl : nullptr, r, right ? &dr : nullptr);
  EXPECT_TRUE(CsrBitwiseEqual(delta, DeltaByDefinition(now, before)));
  EXPECT_TRUE(CsrBitwiseEqual(AddDelta(before, delta), now));
}

TEST(SpGemmDeltaTest, LeftRightAndBothOverPaddedUniverses) {
  // Narrow products touch most of a row's columns; wide ones a few of
  // hundreds.
  for (size_t width : {16u, 400u}) {
    for (uint64_t seed = 0; seed < 10; ++seed) {
      SCOPED_TRACE(testing::Message() << "width " << width << ", seed "
                                      << seed);
      const SparseMatrix l_before = RandomCounts(18, 14, 3, 100 + seed);
      const SparseMatrix r_before = RandomCounts(14, width, 3, 200 + seed);
      // Grown universes on every side: 18 → 21 rows, 14 → 17 inner, and
      // 3 more columns.
      const SparseMatrix l = Edited(l_before, 21, 17, 5, 300 + seed);
      const SparseMatrix r = Edited(r_before, 17, width + 3, 5, 400 + seed);
      const SparseMatrix l_padded = l_before.PaddedTo(21, 17);
      const SparseMatrix r_padded = r_before.PaddedTo(17, width + 3);
      {
        SCOPED_TRACE("left only");
        ExpectProductDelta(l_before, r_before, l, r_padded, true, false);
      }
      {
        SCOPED_TRACE("right only");
        ExpectProductDelta(l_before, r_before, l_padded, r, false, true);
      }
      {
        SCOPED_TRACE("both");
        ExpectProductDelta(l_before, r_before, l, r, true, true);
      }
    }
  }
}

TEST(SpGemmDeltaTest, RemovalsCancelToNoStoredZero) {
  // Row 0 of L moves its one edge from k = 0 to k = 1, and R's rows 0 and
  // 1 are equal: the −1·R(0, ·) and +1·R(1, ·) terms cancel exactly, so
  // row 0 of the Δ stores nothing. Row 1 of L keeps k = 2 while R(2, 3)
  // goes 1 → 0 and R(2, 0) appears: −1 and +1 entries in ΔR.
  const SparseMatrix l_before =
      SparseMatrix::FromTriplets(2, 3, {{0, 0, 1.0}, {1, 2, 1.0}});
  const SparseMatrix l =
      SparseMatrix::FromTriplets(2, 3, {{0, 1, 1.0}, {1, 2, 1.0}});
  const SparseMatrix r_before = SparseMatrix::FromTriplets(
      3, 4, {{0, 1, 1.0}, {0, 2, 1.0}, {1, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  const SparseMatrix r = SparseMatrix::FromTriplets(
      3, 4, {{0, 1, 1.0}, {0, 2, 1.0}, {1, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
  const SparseMatrix dl = DeltaByDefinition(l, l_before);
  const SparseMatrix dr = DeltaByDefinition(r, r_before);
  const SparseMatrix delta = SpGemmDelta(l, &dl, r, &dr);
  EXPECT_EQ(delta.RowNnz(0), 0u);
  EXPECT_TRUE(CsrBitwiseEqual(
      delta, DeltaByDefinition(SpGemm(l, r), SpGemm(l_before, r_before))));
  for (double v : delta.values()) EXPECT_NE(v, 0.0);
}

TEST(SpGemmDeltaTest, EmptyDeltaGivesAnEmptyDelta) {
  const SparseMatrix l = RandomCounts(6, 5, 3, 11);
  const SparseMatrix r = RandomCounts(5, 7, 3, 12);
  const SparseMatrix none(6, 5);
  for (const SparseMatrix& delta : {SpGemmDelta(l, nullptr, r, nullptr),
                                    SpGemmDelta(l, &none, r, nullptr)}) {
    EXPECT_EQ(delta.rows(), 6u);
    EXPECT_EQ(delta.cols(), 7u);
    EXPECT_EQ(delta.nnz(), 0u);
  }
}

TEST(HadamardDeltaTest, TwoAndThreeBranchesMatchTheRefold) {
  // Light edits leave a Δ entry or two per row; heavy ones rewrite whole
  // rows, so their Δs outnumber what a re-intersection reads.
  for (size_t edits : {6u, 80u}) {
    for (size_t k : {2u, 3u}) {
      for (uint64_t seed = 0; seed < 10; ++seed) {
        SCOPED_TRACE(testing::Message() << k << " branches, " << edits
                                        << " edits, seed " << seed);
        std::vector<SparseMatrix> before, now, deltas;
        for (size_t b = 0; b < k; ++b) {
          // Dense enough that the stack keeps entries.
          before.push_back(RandomCounts(15, 10, 8, 500 + 10 * seed + b));
          // The last branch is unchanged (padded only) on odd seeds.
          now.push_back(b + 1 == k && seed % 2 == 1
                            ? before[b].PaddedTo(18, 12)
                            : Edited(before[b], 18, 12, edits,
                                     600 + 10 * seed + b));
          deltas.push_back(DeltaByDefinition(now[b], before[b]));
        }
        auto fold = [](const std::vector<SparseMatrix>& ms) {
          SparseMatrix acc = Hadamard(ms[0], ms[1]);
          for (size_t b = 2; b < ms.size(); ++b) acc = Hadamard(acc, ms[b]);
          return acc;
        };
        const SparseMatrix h_before = fold(before);
        const SparseMatrix h_now = fold(now);
        std::vector<const SparseMatrix*> branch_ptrs, delta_ptrs;
        for (size_t b = 0; b < k; ++b) {
          branch_ptrs.push_back(&now[b]);
          delta_ptrs.push_back(b + 1 == k && seed % 2 == 1 ? nullptr
                                                           : &deltas[b]);
        }
        // Without the last value every row evaluates its Δ entries; with
        // it, rows whose Δs outnumber the re-intersection's entries
        // re-intersect.
        for (bool with_before : {false, true}) {
          const SparseMatrix delta = HadamardDelta(
              with_before ? &h_before : nullptr, branch_ptrs, delta_ptrs);
          EXPECT_TRUE(
              CsrBitwiseEqual(delta, DeltaByDefinition(h_now, h_before)));
          EXPECT_TRUE(CsrBitwiseEqual(AddDelta(h_before, delta), h_now));
        }
      }
    }
  }
}

/// FaceSplitHadamardDelta of `before` → `now` (the same number of
/// branches), carried onto FaceSplitHadamard(before), against
/// FaceSplitHadamard(now). Factors equal in both are passed no Δ.
void ExpectFaceSplitDelta(const Branches& before, const Branches& now) {
  std::vector<SparseMatrix> dx, dy;
  for (size_t i = 0; i < now.x.size(); ++i) {
    dx.push_back(DeltaByDefinition(now.x[i], before.x[i]));
    dy.push_back(DeltaByDefinition(now.y[i], before.y[i]));
  }
  std::vector<const SparseMatrix*> dxs, dys;
  for (size_t i = 0; i < now.x.size(); ++i) {
    dxs.push_back(dx[i].nnz() == 0 ? nullptr : &dx[i]);
    dys.push_back(dy[i].nnz() == 0 ? nullptr : &dy[i]);
  }
  const SparseMatrix m_before = before.FaceSplit();
  const SparseMatrix m_now = now.FaceSplit();
  const SparseMatrix delta = FaceSplitHadamardDelta(
      Branches::Ptrs(now.x), dxs, Branches::Ptrs(now.y), dys);
  EXPECT_TRUE(CsrBitwiseEqual(delta, DeltaByDefinition(m_now, m_before)));
  EXPECT_TRUE(CsrBitwiseEqual(AddDelta(m_before, delta), m_now));
}

TEST(FaceSplitHadamardDeltaTest, MatchesFaceSplitBeforeAndAfter) {
  for (size_t k : {1u, 2u, 3u}) {
    for (uint64_t seed = 0; seed < 10; ++seed) {
      SCOPED_TRACE(testing::Message() << k << " branches, seed " << seed);
      std::vector<size_t> attrs = {6, 5, 4};
      attrs.resize(k);
      const Branches before =
          Branches::Random(30, 25, attrs, 2, 700 + 10 * seed);
      // Posts grow and change their attributes on the left (seed % 3 != 2)
      // and on the right (seed % 3 != 1), and the first factor's attribute
      // universe grows.
      const bool left = seed % 3 != 2, right = seed % 3 != 1;
      Branches now;
      for (size_t i = 0; i < k; ++i) {
        const size_t universe = attrs[i] + (i == 0 ? 2 : 0);
        now.x.push_back(left ? Edited(before.x[i], 34, universe, 3,
                                      800 + 10 * seed + i)
                             : before.x[i].PaddedTo(30, universe));
        now.y.push_back(right ? Transpose(Edited(Transpose(before.y[i]), 28,
                                                 universe, 3,
                                                 900 + 10 * seed + i))
                              : before.y[i].PaddedTo(universe, 25));
      }
      // Pad `before` to the grown universes: AddDelta takes it as is, but
      // the Δ definition needs matching shapes.
      Branches padded;
      for (size_t i = 0; i < k; ++i) {
        padded.x.push_back(before.x[i].PaddedTo(now.x[i].rows(),
                                                now.x[i].cols()));
        padded.y.push_back(before.y[i].PaddedTo(now.y[i].rows(),
                                                now.y[i].cols()));
      }
      ExpectFaceSplitDelta(padded, now);
    }
  }
}

TEST(FaceSplitHadamardDeltaTest, AttributeUniversesBeyondThirtyTwoBits) {
  // FaceSplitHadamardTest.AttributeUniversesBeyondThirtyTwoBits's collision,
  // arriving as a Δ: the left posts 0 and 1 get the tuples (42950, 0) and
  // (0, 32704), which a 32-bit key t·|L| + l would confuse; the right
  // posts 0 and 1 hold them already.
  const size_t kT = 100000, kL = 100000;
  std::vector<Triplet> y1t = {{0, 42950, 1.0}, {1, 0, 1.0}};
  std::vector<Triplet> y2t = {{0, 0, 1.0}, {1, 32704, 1.0}};
  std::vector<Triplet> x1, x2;
  Rng rng(37);
  for (uint32_t post = 2; post < 200; ++post) {
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
  Branches before;
  before.x = {SparseMatrix::FromTriplets(200, kT, x1),
              SparseMatrix::FromTriplets(200, kL, x2)};
  before.y = {Transpose(SparseMatrix::FromTriplets(200, kT, y1t)),
              Transpose(SparseMatrix::FromTriplets(200, kL, y2t))};
  x1.push_back({0, 42950, 1.0});
  x1.push_back({1, 0, 1.0});
  x2.push_back({0, 0, 1.0});
  x2.push_back({1, 32704, 1.0});
  Branches now;
  now.x = {SparseMatrix::FromTriplets(200, kT, x1),
           SparseMatrix::FromTriplets(200, kL, x2)};
  now.y = before.y;
  ExpectFaceSplitDelta(before, now);
  const SparseMatrix dx0 = DeltaByDefinition(now.x[0], before.x[0]);
  const SparseMatrix dx1 = DeltaByDefinition(now.x[1], before.x[1]);
  const SparseMatrix delta =
      FaceSplitHadamardDelta(Branches::Ptrs(now.x), {&dx0, &dx1},
                             Branches::Ptrs(now.y), {nullptr, nullptr});
  EXPECT_EQ(delta.At(0, 0), 1.0);
  EXPECT_EQ(delta.At(1, 1), 1.0);
  EXPECT_EQ(delta.At(0, 1), 0.0);
  EXPECT_EQ(delta.At(1, 0), 0.0);
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
