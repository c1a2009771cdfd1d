#include "src/linalg/sparse_ops.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <unordered_map>

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"

namespace activeiter {
namespace {

// Delta-carry accounting on the default registry: of the rows each
// AddDelta writes, how many were copied unchanged from last epoch's
// product ("rows_spliced") and how many were merged with a nonzero Δ
// ("rows_recomputed"); the names predate the Δ engine and stay, because
// the benchmark's splice fraction reads them.
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

namespace {

/// One stored row: sorted columns and their values. Rows past the end of a
/// smaller (implicitly padded) matrix are empty.
struct RowView {
  const uint32_t* cols = nullptr;
  const double* vals = nullptr;
  size_t size = 0;
};

RowView RowOf(const SparseMatrix& m, size_t i) {
  if (i >= m.rows()) return {};
  const size_t begin = m.row_ptr()[i];
  return {m.col_idx().data() + begin, m.values().data() + begin,
          m.row_ptr()[i + 1] - begin};
}

RowView RowOf(const SparseMatrix* m, size_t i) {
  return m == nullptr ? RowView{} : RowOf(*m, i);
}

/// Appends the sorted merge a + sign·b of two rows, dropping zeros.
void AppendSum(RowView a, RowView b, double sign, std::vector<uint32_t>* cols,
               std::vector<double>* vals) {
  size_t i = 0, j = 0;
  while (i < a.size || j < b.size) {
    uint32_t col;
    double v;
    if (j == b.size || (i < a.size && a.cols[i] < b.cols[j])) {
      col = a.cols[i];
      v = a.vals[i++];
    } else if (i == a.size || b.cols[j] < a.cols[i]) {
      col = b.cols[j];
      v = sign * b.vals[j++];
    } else {
      col = a.cols[i];
      v = a.vals[i++] + sign * b.vals[j++];
    }
    if (v != 0.0) {
      cols->push_back(col);
      vals->push_back(v);
    }
  }
}

/// First index in [lo, hi) of sorted `cols` whose column is >= c (hi if
/// none), by exponential search from lo: O(log of the distance moved), so
/// a short row walks a long one in far fewer steps than a merge.
size_t Gallop(const uint32_t* cols, size_t lo, size_t hi, uint32_t c) {
  size_t step = 1;
  while (lo + step < hi && cols[lo + step] < c) {
    lo += step;
    step <<= 1;
  }
  return static_cast<size_t>(
      std::lower_bound(cols + lo, cols + std::min(hi, lo + step + 1), c) -
      cols);
}

void CheckDeltaShape(const SparseMatrix* delta, const SparseMatrix& m,
                     const char* what) {
  ACTIVEITER_CHECK_MSG(
      delta == nullptr ||
          (delta->rows() == m.rows() && delta->cols() == m.cols()),
      what);
}

}  // namespace

SparseMatrix AddDelta(const SparseMatrix& base, const SparseMatrix& delta) {
  ACTIVEITER_CHECK_MSG(
      base.rows() <= delta.rows() && base.cols() <= delta.cols(),
      "AddDelta base larger than its delta");
  const size_t rows = delta.rows();
  const auto& d_ptr = delta.row_ptr();
  const auto& b_ptr = base.row_ptr();
  const uint32_t* b_col = base.col_idx().data();
  const double* b_val = base.values().data();
  std::vector<size_t> row_ptr(rows + 1, 0);
  // Room for the worst case (no cancellation), filled without first
  // zeroing it.
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(base.nnz() + delta.nnz());
  values.reserve(base.nnz() + delta.nnz());
  size_t merged = 0;
  size_t i = 0;
  while (i < rows) {
    if (d_ptr[i] != d_ptr[i + 1]) {
      // A row with a Δ: one linear merge with its base row.
      AppendSum(RowOf(base, i), RowOf(delta, i), 1.0, &col_idx, &values);
      row_ptr[++i] = col_idx.size();
      ++merged;
      continue;
    }
    // Maximal run [i, end) of rows without a Δ: one bulk copy from base.
    size_t end = i + 1;
    while (end < rows && d_ptr[end] == d_ptr[end + 1]) ++end;
    const size_t copy_end = std::min(end, base.rows());
    if (i < copy_end) {
      const size_t start = col_idx.size();
      col_idx.insert(col_idx.end(), b_col + b_ptr[i], b_col + b_ptr[copy_end]);
      values.insert(values.end(), b_val + b_ptr[i], b_val + b_ptr[copy_end]);
      for (size_t r = i; r < copy_end; ++r) {
        row_ptr[r + 1] = start + (b_ptr[r + 1] - b_ptr[i]);
      }
    }
    for (size_t r = std::max(i, copy_end); r < end; ++r) {
      row_ptr[r + 1] = col_idx.size();
    }
    i = end;
  }
  SpGemmRowsRecomputed().Add(merged);
  SpGemmRowsSpliced().Add(rows - merged);
  return SparseMatrix::FromCsrUnchecked(rows, delta.cols(), std::move(row_ptr),
                                        std::move(col_idx),
                                        std::move(values));
}

SparseMatrix RowsDelta(const SparseMatrix& now, const SparseMatrix& before,
                       const std::vector<uint32_t>& rows) {
  ACTIVEITER_CHECK_MSG(
      before.rows() <= now.rows() && before.cols() <= now.cols(),
      "RowsDelta: before larger than now");
  std::vector<size_t> row_ptr(now.rows() + 1, 0);
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  size_t next = 0;  // first row whose end pointer is not written yet
  for (size_t t = 0; t < rows.size(); ++t) {
    const size_t i = rows[t];
    ACTIVEITER_CHECK_MSG(i < now.rows() && (t == 0 || rows[t - 1] < i),
                         "RowsDelta rows must be sorted, unique and in range");
    for (; next < i; ++next) row_ptr[next + 1] = col_idx.size();
    AppendSum(RowOf(now, i), RowOf(before, i), -1.0, &col_idx, &values);
    row_ptr[i + 1] = col_idx.size();
    next = i + 1;
  }
  for (; next < now.rows(); ++next) row_ptr[next + 1] = col_idx.size();
  return SparseMatrix::FromCsrUnchecked(now.rows(), now.cols(),
                                        std::move(row_ptr), std::move(col_idx),
                                        std::move(values));
}

SparseMatrix SpGemmDelta(const SparseMatrix& l, const SparseMatrix* dl,
                         const SparseMatrix& r, const SparseMatrix* dr) {
  ACTIVEITER_CHECK_MSG(l.cols() == r.rows(), "SpGemmDelta shape mismatch");
  CheckDeltaShape(dl, l, "SpGemmDelta left delta shape mismatch");
  CheckDeltaShape(dr, r, "SpGemmDelta right delta shape mismatch");
  const size_t rows = l.rows();
  const size_t cols = r.cols();
  const bool left = dl != nullptr && dl->nnz() > 0;
  const bool right = dr != nullptr && dr->nnz() > 0;
  if (!left && !right) return SparseMatrix(rows, cols);

  std::vector<size_t> row_ptr(rows + 1, 0);
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  std::vector<double> accum(cols, 0.0);
  // A column's sum can cancel to 0.0 and then be hit again, so membership
  // in `touched` is tracked apart from the value (SpGemm's accum == 0.0
  // test would list it twice).
  std::vector<uint8_t> seen(cols, 0);
  std::vector<uint32_t> touched;
  // accum += scale · row k of the CSR arrays (ptr, col, val).
  auto scatter = [&](double scale, const size_t* ptr, const uint32_t* col,
                     const double* val, size_t k) {
    for (size_t e = ptr[k]; e < ptr[k + 1]; ++e) {
      const uint32_t j = col[e];
      if (!seen[j]) {
        seen[j] = 1;
        touched.push_back(j);
      }
      accum[j] += scale * val[e];
    }
  };
  std::vector<uint32_t> before_cols;
  std::vector<double> before_vals;
  const size_t* r_ptr = r.row_ptr().data();
  const uint32_t* r_col = r.col_idx().data();
  const double* r_val = r.values().data();
  const size_t* dl_ptr = left ? dl->row_ptr().data() : nullptr;
  const uint32_t* dl_col = left ? dl->col_idx().data() : nullptr;
  const double* dl_val = left ? dl->values().data() : nullptr;
  const size_t* dr_ptr = right ? dr->row_ptr().data() : nullptr;
  const uint32_t* dr_col = right ? dr->col_idx().data() : nullptr;
  const double* dr_val = right ? dr->values().data() : nullptr;
  for (size_t i = 0; i < rows; ++i) {
    // ΔL·R.
    if (left) {
      for (size_t e = dl_ptr[i]; e < dl_ptr[i + 1]; ++e) {
        scatter(dl_val[e], r_ptr, r_col, r_val, dl_col[e]);
      }
    }
    if (right) {
      // (L − ΔL)·ΔR = L·ΔR − ΔL·ΔR, over L's row before the change where
      // it meets a changed row of R.
      before_cols.clear();
      before_vals.clear();
      AppendSum(RowOf(l, i), RowOf(dl, i), -1.0, &before_cols, &before_vals);
      for (size_t e = 0; e < before_cols.size(); ++e) {
        const uint32_t k = before_cols[e];
        if (dr_ptr[k] != dr_ptr[k + 1]) {
          scatter(before_vals[e], dr_ptr, dr_col, dr_val, k);
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (uint32_t j : touched) {
      if (accum[j] != 0.0) {
        col_idx.push_back(j);
        values.push_back(accum[j]);
      }
      accum[j] = 0.0;
      seen[j] = 0;
    }
    touched.clear();
    row_ptr[i + 1] = col_idx.size();
  }
  return SparseMatrix::FromCsrUnchecked(rows, cols, std::move(row_ptr),
                                        std::move(col_idx),
                                        std::move(values));
}

SparseMatrix HadamardDelta(const SparseMatrix* before,
                           const std::vector<const SparseMatrix*>& branches,
                           const std::vector<const SparseMatrix*>& deltas) {
  ACTIVEITER_CHECK_MSG(!branches.empty() && deltas.size() == branches.size(),
                       "HadamardDelta needs one (possibly null) delta per "
                       "branch");
  const size_t k = branches.size();
  const size_t rows = branches[0]->rows();
  const size_t cols = branches[0]->cols();
  for (size_t b = 0; b < k; ++b) {
    ACTIVEITER_CHECK_MSG(
        branches[b]->rows() == rows && branches[b]->cols() == cols,
        "HadamardDelta shape mismatch");
    CheckDeltaShape(deltas[b], *branches[b],
                    "HadamardDelta delta shape mismatch");
  }
  ACTIVEITER_CHECK_MSG(
      before == nullptr || (before->rows() <= rows && before->cols() <= cols),
      "HadamardDelta: before larger than the branches");
  std::vector<size_t> row_ptr(rows + 1, 0);
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  // One row's candidate columns and the running products of the branches
  // now and before over them.
  std::vector<uint32_t> cand, merged;
  std::vector<double> now, then;
  std::vector<size_t> order(k);
  for (size_t i = 0; i < rows; ++i) {
    size_t changes = 0;
    for (const SparseMatrix* d : deltas) changes += RowOf(d, i).size;
    if (changes == 0) {
      row_ptr[i + 1] = col_idx.size();
      continue;
    }
    for (size_t b = 0; b < k; ++b) order[b] = b;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return branches[x]->RowNnz(i) < branches[y]->RowNnz(i);
    });
    const RowView shortest = RowOf(*branches[order[0]], i);
    const RowView last = RowOf(before, i);
    if (before != nullptr && shortest.size + last.size < changes) {
      // Fewer entries to re-intersect than Δ entries to look up: the row
      // now is the shortest branch row intersected with the others (each
      // entry galloping to its place), diffed against the row before.
      cand.assign(shortest.cols, shortest.cols + shortest.size);
      now.assign(shortest.vals, shortest.vals + shortest.size);
      for (size_t b = 1; b < k && !cand.empty(); ++b) {
        const RowView other = RowOf(*branches[order[b]], i);
        size_t q = 0, kept = 0;
        for (size_t j = 0; j < cand.size() && q < other.size; ++j) {
          q = Gallop(other.cols, q, other.size, cand[j]);
          if (q == other.size || other.cols[q] != cand[j]) continue;
          const double v = now[j] * other.vals[q++];
          if (v == 0.0) continue;
          cand[kept] = cand[j];
          now[kept++] = v;
        }
        cand.resize(kept);
        now.resize(kept);
      }
      AppendSum({cand.data(), now.data(), cand.size()}, last, -1.0, &col_idx,
                &values);
      row_ptr[i + 1] = col_idx.size();
      continue;
    }
    // Otherwise only the columns some Δᵢ stores can change: there the row
    // is ∏ Bᵢ now and ∏ (Bᵢ − ΔBᵢ) before. A candidate is looked up branch
    // by branch, shortest row first, and dropped once both are zero.
    cand.clear();
    for (const SparseMatrix* d : deltas) {
      const RowView row = RowOf(d, i);
      if (row.size == 0) continue;
      merged.clear();
      std::set_union(cand.begin(), cand.end(), row.cols, row.cols + row.size,
                     std::back_inserter(merged));
      cand.swap(merged);
    }
    now.assign(cand.size(), 1.0);
    then.assign(cand.size(), 1.0);
    for (size_t b : order) {
      const RowView row = RowOf(*branches[b], i);
      const RowView drow = RowOf(deltas[b], i);
      size_t q = 0, dq = 0, kept = 0;
      for (size_t j = 0; j < cand.size(); ++j) {
        const uint32_t c = cand[j];
        q = Gallop(row.cols, q, row.size, c);
        dq = Gallop(drow.cols, dq, drow.size, c);
        const double v = q < row.size && row.cols[q] == c ? row.vals[q] : 0.0;
        const double dv =
            dq < drow.size && drow.cols[dq] == c ? drow.vals[dq] : 0.0;
        const double n = now[j] * v;
        const double p = then[j] * (v - dv);
        if (n == 0.0 && p == 0.0) continue;
        cand[kept] = c;
        now[kept] = n;
        then[kept++] = p;
      }
      cand.resize(kept);
      if (kept == 0) break;
    }
    for (size_t j = 0; j < cand.size(); ++j) {
      const double v = now[j] - then[j];
      if (v != 0.0) {
        col_idx.push_back(cand[j]);
        values.push_back(v);
      }
    }
    row_ptr[i + 1] = col_idx.size();
  }
  return SparseMatrix::FromCsrUnchecked(rows, cols, std::move(row_ptr),
                                        std::move(col_idx),
                                        std::move(values));
}

namespace {

/// Dense ids for the tuples (a₁, …, aₖ) of row-wise Kronecker rows,
/// numbered only for the few rows a Δ holds. a₁ indexes a table over the
/// first factor's universe; each later (prefix id, aᵢ) pair is a hash key
/// (prefix id << 32) | aᵢ. Prefix ids count tuples that occur, so no key
/// outgrows 64 bits, however large the attribute universes.
class TupleIds {
 public:
  TupleIds(size_t factors, size_t first_universe)
      : first_(first_universe, kNone), later_(factors - 1) {}

  /// Number of distinct full tuples numbered so far.
  size_t size() const {
    return later_.empty() ? first_count_ : later_.back().size();
  }

  /// fn(id, product) for every tuple of the Kronecker product of `rows`
  /// (one row per factor). With `extend`, unseen tuples get new ids;
  /// without it they are skipped, pruned at their first unseen prefix.
  template <typename Fn>
  void ForEach(const std::vector<RowView>& rows, bool extend, Fn&& fn) {
    Walk(rows, 0, 0, 1.0, extend, fn);
  }

 private:
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  template <typename Fn>
  void Walk(const std::vector<RowView>& rows, size_t level, uint32_t prefix,
            double product, bool extend, Fn& fn) {
    if (level == rows.size()) {
      fn(prefix, product);
      return;
    }
    const RowView& row = rows[level];
    for (size_t e = 0; e < row.size; ++e) {
      uint32_t id;
      if (level == 0) {
        uint32_t& slot = first_[row.cols[e]];
        if (slot == kNone) {
          if (!extend) continue;
          slot = first_count_++;
        }
        id = slot;
      } else {
        auto& ids = later_[level - 1];
        const uint64_t key = (static_cast<uint64_t>(prefix) << 32) |
                             row.cols[e];
        auto it = ids.find(key);
        if (it == ids.end()) {
          if (!extend) continue;
          it = ids.emplace(key, static_cast<uint32_t>(ids.size())).first;
        }
        id = it->second;
      }
      Walk(rows, level + 1, id,
           level == 0 ? row.vals[e] : product * row.vals[e], extend, fn);
    }
  }

  std::vector<uint32_t> first_;
  uint32_t first_count_ = 0;
  std::vector<std::unordered_map<uint64_t, uint32_t>> later_;
};

/// One Δ side of a face-split join: the changed posts' Kronecker rows,
/// now minus before, grouped by tuple id (ptr over ids, then post order).
struct TupleTerms {
  std::vector<size_t> ptr;
  std::vector<uint32_t> post;
  std::vector<double> value;
};

/// One contribution to a Δ side: `value` at (post, tuple).
struct RawTerm {
  uint32_t tuple, post;
  double value;
};

/// The terms of one Δ side for the posts (rows of ms[0]) whose factor rows
/// some ds[i] changes: the Kronecker row now, and minus the Kronecker row
/// before (each factor row now − Δ), numbered in `ids`.
std::vector<RawTerm> KroneckerDeltaTerms(
    const std::vector<const SparseMatrix*>& ms,
    const std::vector<const SparseMatrix*>& ds, TupleIds* ids) {
  const size_t k = ms.size();
  std::vector<RawTerm> terms;
  std::vector<RowView> now(k), before(k);
  std::vector<std::vector<uint32_t>> before_cols(k);
  std::vector<std::vector<double>> before_vals(k);
  for (size_t p = 0; p < ms[0]->rows(); ++p) {
    size_t changes = 0;
    for (const SparseMatrix* d : ds) changes += RowOf(d, p).size;
    if (changes == 0) continue;
    for (size_t i = 0; i < k; ++i) {
      now[i] = RowOf(*ms[i], p);
      before_cols[i].clear();
      before_vals[i].clear();
      AppendSum(now[i], RowOf(ds[i], p), -1.0, &before_cols[i],
                &before_vals[i]);
      before[i] = {before_cols[i].data(), before_vals[i].data(),
                   before_cols[i].size()};
    }
    const auto post = static_cast<uint32_t>(p);
    ids->ForEach(now, true, [&](uint32_t t, double v) {
      terms.push_back({t, post, v});
    });
    ids->ForEach(before, true, [&](uint32_t t, double v) {
      terms.push_back({t, post, -v});
    });
  }
  return terms;
}

/// Groups raw terms by tuple over `num_tuples` ids, summing equal (tuple,
/// post) pairs and dropping the ones that cancel.
TupleTerms GroupByTuple(std::vector<RawTerm> terms, size_t num_tuples) {
  std::sort(terms.begin(), terms.end(),
            [](const RawTerm& a, const RawTerm& b) {
              return a.tuple != b.tuple ? a.tuple < b.tuple : a.post < b.post;
            });
  TupleTerms out;
  out.ptr.assign(num_tuples + 1, 0);
  for (size_t e = 0; e < terms.size();) {
    const RawTerm& head = terms[e];
    double sum = 0.0;
    for (; e < terms.size() && terms[e].tuple == head.tuple &&
           terms[e].post == head.post;
         ++e) {
      sum += terms[e].value;
    }
    if (sum == 0.0) continue;
    out.post.push_back(head.post);
    out.value.push_back(sum);
    ++out.ptr[head.tuple + 1];
  }
  for (size_t t = 0; t < num_tuples; ++t) out.ptr[t + 1] += out.ptr[t];
  return out;
}

}  // namespace

SparseMatrix FaceSplitHadamardDelta(
    const std::vector<const SparseMatrix*>& xs,
    const std::vector<const SparseMatrix*>& dxs,
    const std::vector<const SparseMatrix*>& ys,
    const std::vector<const SparseMatrix*>& dys) {
  ACTIVEITER_CHECK_MSG(!xs.empty() && xs.size() == ys.size() &&
                           dxs.size() == xs.size() && dys.size() == ys.size(),
                       "FaceSplitHadamardDelta needs k >= 1 (X, dX, Y, dY)");
  const size_t k = xs.size();
  for (size_t i = 0; i < k; ++i) {
    ACTIVEITER_CHECK_MSG(xs[i]->rows() == xs[0]->rows() &&
                             ys[i]->cols() == ys[0]->cols() &&
                             xs[i]->cols() == ys[i]->rows(),
                         "FaceSplitHadamardDelta shape mismatch");
    CheckDeltaShape(dxs[i], *xs[i], "FaceSplitHadamardDelta dX mismatch");
    CheckDeltaShape(dys[i], *ys[i], "FaceSplitHadamardDelta dY mismatch");
  }
  const size_t left = xs[0]->rows();
  const size_t right = ys[0]->cols();
  // The right posts' factor rows: Yᵢᵀ, and ΔYᵢᵀ where Yᵢ changed.
  std::vector<SparseMatrix> yt, dyt;
  yt.reserve(k);
  dyt.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    yt.push_back(Transpose(*ys[i]));
    if (dys[i] != nullptr) dyt.push_back(Transpose(*dys[i]));
  }
  std::vector<const SparseMatrix*> yts, dyts;
  for (size_t i = 0, j = 0; i < k; ++i) {
    yts.push_back(&yt[i]);
    dyts.push_back(dys[i] != nullptr ? &dyt[j++] : nullptr);
  }

  // Both Δ sides number their tuples in one dictionary (the factors'
  // attribute universes are shared), so ΔF·ΔGᵀ joins by id.
  TupleIds ids(k, xs[0]->cols());
  std::vector<RawTerm> f_raw = KroneckerDeltaTerms(xs, dxs, &ids);
  std::vector<RawTerm> g_raw = KroneckerDeltaTerms(yts, dyts, &ids);
  const TupleTerms df = GroupByTuple(std::move(f_raw), ids.size());
  const TupleTerms dg = GroupByTuple(std::move(g_raw), ids.size());

  // ((left post << 32) | right post, value) contributions to ΔM.
  std::vector<std::pair<uint64_t, double>> terms;
  auto key = [](uint32_t p, uint32_t q) {
    return (static_cast<uint64_t>(p) << 32) | q;
  };
  std::vector<RowView> rows(k);
  if (!df.post.empty()) {
    // ΔF·Gᵀ: one pass over the right posts' Kronecker rows, pruned to
    // the numbered tuples.
    for (size_t q = 0; q < right; ++q) {
      for (size_t i = 0; i < k; ++i) rows[i] = RowOf(yt[i], q);
      ids.ForEach(rows, false, [&](uint32_t t, double g) {
        for (size_t e = df.ptr[t]; e < df.ptr[t + 1]; ++e) {
          terms.emplace_back(key(df.post[e], static_cast<uint32_t>(q)),
                             df.value[e] * g);
        }
      });
    }
  }
  if (!dg.post.empty()) {
    // F·ΔGᵀ: one pass over the left posts' Kronecker rows.
    for (size_t p = 0; p < left; ++p) {
      for (size_t i = 0; i < k; ++i) rows[i] = RowOf(*xs[i], p);
      ids.ForEach(rows, false, [&](uint32_t t, double f) {
        for (size_t e = dg.ptr[t]; e < dg.ptr[t + 1]; ++e) {
          terms.emplace_back(key(static_cast<uint32_t>(p), dg.post[e]),
                             f * dg.value[e]);
        }
      });
    }
    // −ΔF·ΔGᵀ, joined by tuple id.
    for (size_t t = 0; t + 1 < df.ptr.size(); ++t) {
      for (size_t e = df.ptr[t]; e < df.ptr[t + 1]; ++e) {
        for (size_t f = dg.ptr[t]; f < dg.ptr[t + 1]; ++f) {
          terms.emplace_back(key(df.post[e], dg.post[f]),
                             -(df.value[e] * dg.value[f]));
        }
      }
    }
  }

  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<size_t> row_ptr(left + 1, 0);
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  for (size_t e = 0; e < terms.size();) {
    const uint64_t at = terms[e].first;
    double sum = 0.0;
    for (; e < terms.size() && terms[e].first == at; ++e) {
      sum += terms[e].second;
    }
    if (sum == 0.0) continue;
    col_idx.push_back(static_cast<uint32_t>(at));
    values.push_back(sum);
    ++row_ptr[(at >> 32) + 1];
  }
  for (size_t p = 0; p < left; ++p) row_ptr[p + 1] += row_ptr[p];
  return SparseMatrix::FromCsrUnchecked(left, right, std::move(row_ptr),
                                        std::move(col_idx),
                                        std::move(values));
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
