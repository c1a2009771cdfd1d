// Sparse matrix in CSR (compressed sparse row) format.
//
// Meta-path instance counting is a chain of products of typed adjacency
// matrices (follow, write, post→timestamp, ...). These matrices are large
// (users × posts can be 10⁴ × 10⁶ in the paper's data) but extremely
// sparse, so every count matrix lives in CSR and is combined with the
// SpGEMM/Hadamard kernels in sparse_ops.h.

#ifndef ACTIVEITER_LINALG_SPARSE_H_
#define ACTIVEITER_LINALG_SPARSE_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/linalg/matrix.h"
#include "src/linalg/vector.h"

namespace activeiter {

/// One (row, col, value) entry used when assembling a sparse matrix.
struct Triplet {
  uint32_t row = 0;
  uint32_t col = 0;
  double value = 0.0;
};

/// Immutable CSR sparse matrix. Column indices within each row are sorted
/// and unique; explicitly stored zeros are allowed but pruned by builders.
class SparseMatrix {
 public:
  /// Empty 0×0 matrix.
  SparseMatrix() = default;

  /// rows×cols matrix with no stored entries.
  SparseMatrix(size_t rows, size_t cols);

  /// Builds from triplets; duplicate (row, col) entries are summed and
  /// resulting zeros dropped.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   std::vector<Triplet> triplets);

  /// Builds directly from CSR arrays (the kernel fast path — no triplet
  /// sort). Row pointers must be monotone with row_ptr.back() equal to
  /// col_idx.size(), and columns sorted and unique within each row
  /// (checked).
  static SparseMatrix FromCsr(size_t rows, size_t cols,
                              std::vector<size_t> row_ptr,
                              std::vector<uint32_t> col_idx,
                              std::vector<double> values);

  /// FromCsr without the O(nnz) per-entry scan, for kernels whose output
  /// is sorted/unique by construction — the scan would otherwise serialize
  /// the tail of every parallel product. Cheap O(rows) structure checks
  /// remain; the full scan still runs in debug (!NDEBUG) builds.
  static SparseMatrix FromCsrUnchecked(size_t rows, size_t cols,
                                       std::vector<size_t> row_ptr,
                                       std::vector<uint32_t> col_idx,
                                       std::vector<double> values);

  /// Identity matrix.
  static SparseMatrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }

  /// Value at (i, j); O(log nnz(row i)). Zero when not stored.
  double At(size_t i, size_t j) const;

  /// Raw CSR access for kernels.
  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Number of stored entries in row i.
  size_t RowNnz(size_t i) const {
    ACTIVEITER_CHECK(i < rows_);
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  /// Iterates row i: fn(col, value) per stored entry.
  template <typename Fn>
  void ForEachInRow(size_t i, Fn&& fn) const {
    ACTIVEITER_CHECK(i < rows_);
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      fn(static_cast<size_t>(col_idx_[k]), values_[k]);
    }
  }

  /// Iterates all entries: fn(row, col, value).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < rows_; ++i) {
      for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        fn(i, static_cast<size_t>(col_idx_[k]), values_[k]);
      }
    }
  }

  /// Densifies (tests / tiny matrices only).
  Matrix ToDense() const;

  /// Sum of all stored values.
  double Sum() const;

  /// Row sums as a dense vector (|P(u, ·)| in the proximity definition).
  Vector RowSums() const;

  /// Column sums as a dense vector (|P(·, u)|).
  Vector ColSums() const;

  /// Structural equality of shape and stored (index, value) data.
  bool Equals(const SparseMatrix& other, double tolerance = 0.0) const;

  /// Copy with the shape grown to rows×cols (each must be >= the current
  /// dimension; checked); new rows and columns are empty, stored entries
  /// are untouched. O(rows + nnz). The delta-aware feature engine pads
  /// cached count matrices with this when node universes grow, instead of
  /// recomputing the products they came from.
  SparseMatrix PaddedTo(size_t rows, size_t cols) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_ptr_{0};
  std::vector<uint32_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_LINALG_SPARSE_H_
