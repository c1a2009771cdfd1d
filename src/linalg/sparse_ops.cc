#include "src/linalg/sparse_ops.h"

#include <algorithm>
#include <cstring>

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"

namespace activeiter {
namespace {

// Incremental-SpGEMM accounting on the default registry: how many output
// rows each SpGemmRowUpdate recomputed Gustavson-style vs memcpy-spliced
// from the base product. The spliced:recomputed ratio is what makes the
// delta-bounded path pay, so it is worth watching on a live run.
Counter& SpGemmRowsRecomputed() {
  static Counter* counter = MetricsRegistry::Default().GetCounter(
      "linalg.spgemm.rows_recomputed");
  return *counter;
}

Counter& SpGemmRowsSpliced() {
  static Counter* counter = MetricsRegistry::Default().GetCounter(
      "linalg.spgemm.rows_spliced");
  return *counter;
}

// Number of contiguous row blocks a pooled kernel splits its work into.
// Capped at 2× the worker count: each SpGemm block owns a dense accumulator
// sized to B.cols(), so over-chunking costs memory, not balance.
size_t NumRowBlocks(size_t rows, ThreadPool* pool) {
  if (rows == 0) return 0;
  if (ThreadPool::RunsInline(pool, rows)) return 1;
  return std::min(rows, pool->num_threads() * 2);
}

// Rows [rows*c/blocks, rows*(c+1)/blocks) belong to block c.
size_t BlockBegin(size_t rows, size_t blocks, size_t c) {
  return rows * c / blocks;
}

// One block's slice of an output matrix under construction.
struct CsrBlock {
  std::vector<size_t> row_nnz;  // per row of the block
  std::vector<uint32_t> cols;
  std::vector<double> vals;
};

// Stitches per-block slices into one CSR matrix, copying value arrays in
// parallel once the global offsets are known.
SparseMatrix StitchBlocks(size_t rows, size_t cols,
                          std::vector<CsrBlock> blocks, ThreadPool* pool) {
  const size_t num_blocks = blocks.size();
  std::vector<size_t> row_ptr(rows + 1, 0);
  if (num_blocks == 1) {
    // Serial path (and nested pooled calls): the single block already holds
    // the whole result — move it out instead of copying O(nnz) data.
    CsrBlock& block = blocks.front();
    for (size_t r = 0; r < rows; ++r) {
      row_ptr[r + 1] = row_ptr[r] + block.row_nnz[r];
    }
    return SparseMatrix::FromCsrUnchecked(rows, cols, std::move(row_ptr),
                                          std::move(block.cols),
                                          std::move(block.vals));
  }
  std::vector<size_t> block_offset(num_blocks + 1, 0);
  for (size_t c = 0; c < num_blocks; ++c) {
    const size_t begin = BlockBegin(rows, num_blocks, c);
    for (size_t r = 0; r < blocks[c].row_nnz.size(); ++r) {
      row_ptr[begin + r + 1] = blocks[c].row_nnz[r];
    }
    block_offset[c + 1] = block_offset[c] + blocks[c].cols.size();
  }
  for (size_t i = 0; i < rows; ++i) row_ptr[i + 1] += row_ptr[i];

  std::vector<uint32_t> col_idx(block_offset[num_blocks]);
  std::vector<double> values(block_offset[num_blocks]);
  ThreadPool::ParallelFor(pool, num_blocks, [&](size_t c) {
    if (blocks[c].cols.empty()) return;
    std::memcpy(col_idx.data() + block_offset[c], blocks[c].cols.data(),
                blocks[c].cols.size() * sizeof(uint32_t));
    std::memcpy(values.data() + block_offset[c], blocks[c].vals.data(),
                blocks[c].vals.size() * sizeof(double));
  });
  return SparseMatrix::FromCsrUnchecked(rows, cols, std::move(row_ptr),
                                        std::move(col_idx),
                                        std::move(values));
}

}  // namespace

SparseMatrix SpGemm(const SparseMatrix& a, const SparseMatrix& b,
                    ThreadPool* pool) {
  ACTIVEITER_CHECK_MSG(a.cols() == b.rows(), "SpGemm shape mismatch");
  const size_t rows = a.rows();
  const size_t cols = b.cols();
  if (rows == 0) return SparseMatrix(rows, cols);

  const auto& a_ptr = a.row_ptr();
  const auto& a_col = a.col_idx();
  const auto& a_val = a.values();
  const auto& b_ptr = b.row_ptr();
  const auto& b_col = b.col_idx();
  const auto& b_val = b.values();

  const size_t num_blocks = NumRowBlocks(rows, pool);
  std::vector<CsrBlock> blocks(num_blocks);
  ThreadPool::ParallelFor(pool, num_blocks, [&](size_t c) {
    const size_t begin = BlockBegin(rows, num_blocks, c);
    const size_t end = BlockBegin(rows, num_blocks, c + 1);
    CsrBlock& block = blocks[c];
    block.row_nnz.resize(end - begin, 0);
    // Gustavson: for each row of A, scatter scaled rows of B into a dense
    // accumulator, then gather touched columns in sorted order.
    std::vector<double> accum(cols, 0.0);
    std::vector<uint32_t> touched;
    touched.reserve(256);
    for (size_t i = begin; i < end; ++i) {
      touched.clear();
      for (size_t ka = a_ptr[i]; ka < a_ptr[i + 1]; ++ka) {
        const size_t k = a_col[ka];
        const double av = a_val[ka];
        for (size_t kb = b_ptr[k]; kb < b_ptr[k + 1]; ++kb) {
          const uint32_t j = b_col[kb];
          if (accum[j] == 0.0) touched.push_back(j);
          accum[j] += av * b_val[kb];
        }
      }
      std::sort(touched.begin(), touched.end());
      size_t nnz = 0;
      for (uint32_t j : touched) {
        if (accum[j] != 0.0) {
          block.cols.push_back(j);
          block.vals.push_back(accum[j]);
          ++nnz;
        }
        accum[j] = 0.0;
      }
      block.row_nnz[i - begin] = nnz;
    }
  });
  return StitchBlocks(rows, cols, std::move(blocks), pool);
}

SparseMatrix SpGemmRowUpdate(const SparseMatrix& base, const SparseMatrix& a,
                             const SparseMatrix& b,
                             const std::vector<uint32_t>& rows,
                             ThreadPool* pool) {
  ACTIVEITER_CHECK_MSG(a.cols() == b.rows(), "SpGemmRowUpdate shape mismatch");
  ACTIVEITER_CHECK_MSG(base.rows() == a.rows() && base.cols() == b.cols(),
                       "SpGemmRowUpdate base shape mismatch");
  if (rows.empty()) return base;
  for (size_t t = 0; t < rows.size(); ++t) {
    ACTIVEITER_CHECK_MSG(
        rows[t] < a.rows() && (t == 0 || rows[t - 1] < rows[t]),
        "SpGemmRowUpdate rows must be sorted, unique and in range");
  }

  const size_t n = a.rows();
  const size_t cols = b.cols();
  const auto& a_ptr = a.row_ptr();
  const auto& a_col = a.col_idx();
  const auto& a_val = a.values();
  const auto& b_ptr = b.row_ptr();
  const auto& b_col = b.col_idx();
  const auto& b_val = b.values();

  // Phase 1: recompute the listed rows with the Gustavson kernel — the
  // identical per-row arithmetic SpGemm runs, so a recomputed row is
  // bitwise the row a full product would produce.
  struct FreshRow {
    std::vector<uint32_t> cols;
    std::vector<double> vals;
  };
  std::vector<FreshRow> fresh(rows.size());
  ThreadPool::ParallelForRanges(pool, rows.size(), [&](size_t tb, size_t te) {
    std::vector<double> accum(cols, 0.0);
    std::vector<uint32_t> touched;
    touched.reserve(256);
    for (size_t t = tb; t < te; ++t) {
      const size_t i = rows[t];
      touched.clear();
      for (size_t ka = a_ptr[i]; ka < a_ptr[i + 1]; ++ka) {
        const size_t k = a_col[ka];
        const double av = a_val[ka];
        for (size_t kb = b_ptr[k]; kb < b_ptr[k + 1]; ++kb) {
          const uint32_t j = b_col[kb];
          if (accum[j] == 0.0) touched.push_back(j);
          accum[j] += av * b_val[kb];
        }
      }
      std::sort(touched.begin(), touched.end());
      FreshRow& out = fresh[t];
      out.cols.reserve(touched.size());
      out.vals.reserve(touched.size());
      for (uint32_t j : touched) {
        if (accum[j] != 0.0) {
          out.cols.push_back(j);
          out.vals.push_back(accum[j]);
        }
        accum[j] = 0.0;
      }
    }
  });

  // Phase 2: splice. Row pointers first, then bulk-copy the unchanged runs
  // between recomputed rows straight out of base's CSR arrays.
  const auto& base_ptr = base.row_ptr();
  const auto& base_col = base.col_idx();
  const auto& base_val = base.values();
  std::vector<size_t> row_ptr(n + 1, 0);
  {
    size_t t = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t nnz = (t < rows.size() && rows[t] == i)
                             ? fresh[t++].cols.size()
                             : base_ptr[i + 1] - base_ptr[i];
      row_ptr[i + 1] = row_ptr[i] + nnz;
    }
  }
  std::vector<uint32_t> col_idx(row_ptr[n]);
  std::vector<double> values(row_ptr[n]);
  size_t t = 0;
  size_t i = 0;
  while (i < n) {
    if (t < rows.size() && rows[t] == i) {
      const FreshRow& f = fresh[t];
      if (!f.cols.empty()) {
        std::memcpy(col_idx.data() + row_ptr[i], f.cols.data(),
                    f.cols.size() * sizeof(uint32_t));
        std::memcpy(values.data() + row_ptr[i], f.vals.data(),
                    f.vals.size() * sizeof(double));
      }
      ++t;
      ++i;
      continue;
    }
    // Maximal run of unchanged rows [i, run_end): one contiguous copy.
    const size_t run_end = t < rows.size() ? rows[t] : n;
    const size_t count = base_ptr[run_end] - base_ptr[i];
    if (count > 0) {
      std::memcpy(col_idx.data() + row_ptr[i], base_col.data() + base_ptr[i],
                  count * sizeof(uint32_t));
      std::memcpy(values.data() + row_ptr[i], base_val.data() + base_ptr[i],
                  count * sizeof(double));
    }
    i = run_end;
  }
  SpGemmRowsRecomputed().Add(rows.size());
  SpGemmRowsSpliced().Add(n - rows.size());
  return SparseMatrix::FromCsrUnchecked(n, cols, std::move(row_ptr),
                                        std::move(col_idx),
                                        std::move(values));
}

SparseMatrix Transpose(const SparseMatrix& a, ThreadPool* pool) {
  const size_t rows = a.rows();
  const size_t cols = a.cols();
  const auto& a_ptr = a.row_ptr();
  const auto& a_col = a.col_idx();
  const auto& a_val = a.values();

  const size_t num_blocks = std::max<size_t>(NumRowBlocks(rows, pool), 1);
  // Phase 1: per-block column histograms.
  std::vector<std::vector<size_t>> hist(num_blocks);
  ThreadPool::ParallelFor(pool, num_blocks, [&](size_t c) {
    hist[c].assign(cols, 0);
    const size_t begin = BlockBegin(rows, num_blocks, c);
    const size_t end = BlockBegin(rows, num_blocks, c + 1);
    for (size_t k = a_ptr[begin]; k < a_ptr[end]; ++k) ++hist[c][a_col[k]];
  });

  // Output row pointers, and per-(block, column) write cursors so the
  // scatter below preserves the source-row order within every column (CSR
  // of Aᵀ needs sorted, unique column indices, which source rows are).
  std::vector<size_t> out_ptr(cols + 1, 0);
  for (size_t j = 0; j < cols; ++j) {
    size_t total = 0;
    for (size_t c = 0; c < num_blocks; ++c) {
      const size_t count = hist[c][j];
      hist[c][j] = out_ptr[j] + total;  // becomes the block's cursor
      total += count;
    }
    out_ptr[j + 1] = out_ptr[j] + total;
  }

  std::vector<uint32_t> out_col(a.nnz());
  std::vector<double> out_val(a.nnz());
  ThreadPool::ParallelFor(pool, num_blocks, [&](size_t c) {
    auto& cursor = hist[c];
    const size_t begin = BlockBegin(rows, num_blocks, c);
    const size_t end = BlockBegin(rows, num_blocks, c + 1);
    for (size_t i = begin; i < end; ++i) {
      for (size_t k = a_ptr[i]; k < a_ptr[i + 1]; ++k) {
        const size_t pos = cursor[a_col[k]]++;
        out_col[pos] = static_cast<uint32_t>(i);
        out_val[pos] = a_val[k];
      }
    }
  });
  return SparseMatrix::FromCsrUnchecked(cols, rows, std::move(out_ptr),
                                        std::move(out_col),
                                        std::move(out_val));
}

SparseMatrix CompressDense(const Matrix& dense, ThreadPool* pool) {
  const size_t rows = dense.rows();
  const size_t cols = dense.cols();
  if (rows == 0) return SparseMatrix(rows, cols);
  const size_t num_blocks = NumRowBlocks(rows, pool);
  std::vector<CsrBlock> blocks(num_blocks);
  ThreadPool::ParallelFor(pool, num_blocks, [&](size_t c) {
    const size_t begin = BlockBegin(rows, num_blocks, c);
    const size_t end = BlockBegin(rows, num_blocks, c + 1);
    CsrBlock& block = blocks[c];
    block.row_nnz.resize(end - begin);
    // Branch-free compaction: every entry is written to the next free slot,
    // which advances only past a nonzero, so the arrays keep `cols` slots
    // of room beyond the `kept` entries while a row is scanned.
    size_t kept = 0;
    for (size_t i = begin; i < end; ++i) {
      const double* row = dense.row_data(i);
      block.cols.resize(kept + cols);
      block.vals.resize(kept + cols);
      uint32_t* out_col = block.cols.data();
      double* out_val = block.vals.data();
      const size_t row_begin = kept;
      for (size_t j = 0; j < cols; ++j) {
        const double v = row[j];
        out_col[kept] = static_cast<uint32_t>(j);
        out_val[kept] = v;
        kept += v != 0.0;
      }
      block.row_nnz[i - begin] = kept - row_begin;
    }
    block.cols.resize(kept);
    block.vals.resize(kept);
  });
  return StitchBlocks(rows, cols, std::move(blocks), pool);
}

SparseMatrix Hadamard(const SparseMatrix& a, const SparseMatrix& b,
                      ThreadPool* pool) {
  ACTIVEITER_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                       "Hadamard shape mismatch");
  const size_t rows = a.rows();
  if (rows == 0) return SparseMatrix(rows, a.cols());
  const auto& a_ptr = a.row_ptr();
  const auto& a_col = a.col_idx();
  const auto& a_val = a.values();
  const auto& b_ptr = b.row_ptr();
  const auto& b_col = b.col_idx();
  const auto& b_val = b.values();

  const size_t num_blocks = NumRowBlocks(rows, pool);
  std::vector<CsrBlock> blocks(num_blocks);
  ThreadPool::ParallelFor(pool, num_blocks, [&](size_t c) {
    const size_t begin = BlockBegin(rows, num_blocks, c);
    const size_t end = BlockBegin(rows, num_blocks, c + 1);
    CsrBlock& block = blocks[c];
    block.row_nnz.resize(end - begin, 0);
    for (size_t i = begin; i < end; ++i) {
      size_t ka = a_ptr[i], kb = b_ptr[i];
      const size_t ea = a_ptr[i + 1], eb = b_ptr[i + 1];
      size_t nnz = 0;
      while (ka < ea && kb < eb) {
        if (a_col[ka] < b_col[kb]) {
          ++ka;
        } else if (a_col[ka] > b_col[kb]) {
          ++kb;
        } else {
          const double v = a_val[ka] * b_val[kb];
          if (v != 0.0) {
            block.cols.push_back(a_col[ka]);
            block.vals.push_back(v);
            ++nnz;
          }
          ++ka;
          ++kb;
        }
      }
      block.row_nnz[i - begin] = nnz;
    }
  });
  return StitchBlocks(rows, a.cols(), std::move(blocks), pool);
}

namespace {

// Row-wise Kronecker product M₁ ⊙ … ⊙ Mₖ of equal-height factors: row r
// holds M₁(r, a₁)·…·Mₖ(r, aₖ) for every tuple (a₁, …, aₖ). Tuples are
// numbered factor by factor: after factor i, the pair (prefix id, aᵢ)
// becomes its rank in (*dicts)[i - 1], a sorted list of the 64-bit pair
// keys. `extend` builds the lists from this product's pairs; otherwise
// pairs missing from them are dropped. Ranks keep key order and each row
// is enumerated in key order, so rows come out sorted.
SparseMatrix RowKronecker(const std::vector<const SparseMatrix*>& factors,
                          std::vector<std::vector<uint64_t>>* dicts,
                          bool extend) {
  const SparseMatrix& head = *factors.front();
  const size_t rows = head.rows();
  std::vector<size_t> ptr = head.row_ptr();
  std::vector<uint32_t> ids = head.col_idx();
  std::vector<double> vals = head.values();
  size_t width = head.cols();
  for (size_t f = 1; f < factors.size(); ++f) {
    const auto& m_ptr = factors[f]->row_ptr();
    const auto& m_col = factors[f]->col_idx();
    const auto& m_val = factors[f]->values();
    std::vector<uint64_t> keys;
    std::vector<double> products;
    std::vector<size_t> pair_ptr(rows + 1, 0);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t p = ptr[r]; p < ptr[r + 1]; ++p) {
        for (size_t q = m_ptr[r]; q < m_ptr[r + 1]; ++q) {
          keys.push_back((static_cast<uint64_t>(ids[p]) << 32) | m_col[q]);
          products.push_back(vals[p] * m_val[q]);
        }
      }
      pair_ptr[r + 1] = keys.size();
    }
    std::vector<uint64_t>& dict = (*dicts)[f - 1];
    if (extend) {
      dict = keys;
      std::sort(dict.begin(), dict.end());
      dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    }
    ids.clear();
    vals.clear();
    for (size_t r = 0; r < rows; ++r) {
      for (size_t p = pair_ptr[r]; p < pair_ptr[r + 1]; ++p) {
        auto it = std::lower_bound(dict.begin(), dict.end(), keys[p]);
        if (it == dict.end() || *it != keys[p]) continue;
        ids.push_back(static_cast<uint32_t>(it - dict.begin()));
        vals.push_back(products[p]);
      }
      ptr[r + 1] = ids.size();
    }
    width = dict.size();
  }
  return SparseMatrix::FromCsrUnchecked(rows, width, std::move(ptr),
                                        std::move(ids), std::move(vals));
}

}  // namespace

SparseMatrix FaceSplitHadamard(const std::vector<const SparseMatrix*>& xs,
                               const std::vector<const SparseMatrix*>& ys,
                               ThreadPool* pool) {
  ACTIVEITER_CHECK_MSG(!xs.empty() && xs.size() == ys.size(),
                       "FaceSplitHadamard needs k >= 1 (X, Y) pairs");
  for (size_t i = 0; i < xs.size(); ++i) {
    ACTIVEITER_CHECK_MSG(xs[i]->rows() == xs[0]->rows() &&
                             ys[i]->cols() == ys[0]->cols() &&
                             xs[i]->cols() == ys[i]->rows(),
                         "FaceSplitHadamard shape mismatch");
  }
  std::vector<SparseMatrix> y_transposed;
  y_transposed.reserve(ys.size());
  std::vector<const SparseMatrix*> y_rows;
  for (const SparseMatrix* y : ys) {
    y_transposed.push_back(Transpose(*y, pool));
    y_rows.push_back(&y_transposed.back());
  }
  // The tuples the left factor forms number the inner dimension; a right
  // tuple outside them meets no left entry and is dropped.
  std::vector<std::vector<uint64_t>> dicts(xs.size() - 1);
  SparseMatrix left = RowKronecker(xs, &dicts, /*extend=*/true);
  SparseMatrix right = RowKronecker(y_rows, &dicts, /*extend=*/false);
  return SpGemm(left, Transpose(right, pool), pool);
}

SparseMatrix Add(const SparseMatrix& a, const SparseMatrix& b) {
  ACTIVEITER_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                       "Add shape mismatch");
  std::vector<Triplet> trips;
  trips.reserve(a.nnz() + b.nnz());
  a.ForEach([&](size_t i, size_t j, double v) {
    trips.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j), v});
  });
  b.ForEach([&](size_t i, size_t j, double v) {
    trips.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j), v});
  });
  return SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(trips));
}

SparseMatrix Scale(const SparseMatrix& a, double alpha) {
  std::vector<Triplet> trips;
  trips.reserve(a.nnz());
  a.ForEach([&](size_t i, size_t j, double v) {
    trips.push_back(
        {static_cast<uint32_t>(i), static_cast<uint32_t>(j), v * alpha});
  });
  return SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(trips));
}

Vector SpMv(const SparseMatrix& a, const Vector& x) {
  ACTIVEITER_CHECK_MSG(a.cols() == x.size(), "SpMv shape mismatch");
  Vector y(a.rows());
  a.ForEach([&](size_t i, size_t j, double v) { y(i) += v * x(j); });
  return y;
}

SparseMatrix Binarize(const SparseMatrix& a) {
  // a's rows are sorted and unique already: keep its structure as is.
  return SparseMatrix::FromCsrUnchecked(a.rows(), a.cols(), a.row_ptr(),
                                        a.col_idx(),
                                        std::vector<double>(a.nnz(), 1.0));
}

SparseMatrix MaskBySupport(const SparseMatrix& a,
                           const SparseMatrix& support) {
  return Hadamard(a, Binarize(support));
}

}  // namespace activeiter
