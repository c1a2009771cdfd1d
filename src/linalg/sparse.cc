#include "src/linalg/sparse.h"

#include <algorithm>
#include <cmath>

namespace activeiter {

SparseMatrix::SparseMatrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const auto& t : triplets) {
    ACTIVEITER_CHECK_MSG(t.row < rows && t.col < cols,
                         "triplet index out of bounds");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  SparseMatrix m(rows, cols);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  for (size_t r = 0; r < rows; ++r) {
    while (i < triplets.size() && triplets[i].row == r) {
      uint32_t c = triplets[i].col;
      double v = 0.0;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      if (v != 0.0) {
        m.col_idx_.push_back(c);
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[r + 1] = m.col_idx_.size();
  }
  return m;
}

SparseMatrix SparseMatrix::FromCsr(size_t rows, size_t cols,
                                   std::vector<size_t> row_ptr,
                                   std::vector<uint32_t> col_idx,
                                   std::vector<double> values) {
  ACTIVEITER_CHECK_MSG(row_ptr.size() == rows + 1, "FromCsr row_ptr size");
  ACTIVEITER_CHECK_MSG(row_ptr.front() == 0 && row_ptr.back() == col_idx.size(),
                       "FromCsr row_ptr bounds");
  ACTIVEITER_CHECK_MSG(col_idx.size() == values.size(),
                       "FromCsr col/value size mismatch");
  for (size_t i = 0; i < rows; ++i) {
    ACTIVEITER_CHECK_MSG(row_ptr[i] <= row_ptr[i + 1],
                         "FromCsr row_ptr not monotone");
    for (size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      ACTIVEITER_CHECK_MSG(col_idx[k] < cols, "FromCsr column out of bounds");
      ACTIVEITER_CHECK_MSG(k == row_ptr[i] || col_idx[k - 1] < col_idx[k],
                           "FromCsr columns not sorted/unique");
    }
  }
  SparseMatrix m(rows, cols);
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::FromCsrUnchecked(size_t rows, size_t cols,
                                            std::vector<size_t> row_ptr,
                                            std::vector<uint32_t> col_idx,
                                            std::vector<double> values) {
#ifndef NDEBUG
  return FromCsr(rows, cols, std::move(row_ptr), std::move(col_idx),
                 std::move(values));
#else
  ACTIVEITER_CHECK_MSG(row_ptr.size() == rows + 1, "FromCsr row_ptr size");
  ACTIVEITER_CHECK_MSG(row_ptr.front() == 0 && row_ptr.back() == col_idx.size(),
                       "FromCsr row_ptr bounds");
  ACTIVEITER_CHECK_MSG(col_idx.size() == values.size(),
                       "FromCsr col/value size mismatch");
  for (size_t i = 0; i < rows; ++i) {
    ACTIVEITER_CHECK_MSG(row_ptr[i] <= row_ptr[i + 1],
                         "FromCsr row_ptr not monotone");
  }
  SparseMatrix m(rows, cols);
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
#endif
}

SparseMatrix SparseMatrix::Identity(size_t n) {
  std::vector<Triplet> trips;
  trips.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    trips.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i), 1.0});
  }
  return FromTriplets(n, n, std::move(trips));
}

double SparseMatrix::At(size_t i, size_t j) const {
  ACTIVEITER_CHECK(i < rows_ && j < cols_);
  auto begin = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[i]);
  auto end = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[i + 1]);
  auto it = std::lower_bound(begin, end, static_cast<uint32_t>(j));
  if (it == end || *it != j) return 0.0;
  return values_[static_cast<size_t>(it - col_idx_.begin())];
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  ForEach([&](size_t i, size_t j, double v) { out(i, j) = v; });
  return out;
}

double SparseMatrix::Sum() const {
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc;
}

Vector SparseMatrix::RowSums() const {
  Vector out(rows_);
  for (size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) acc += values_[k];
    out(i) = acc;
  }
  return out;
}

Vector SparseMatrix::ColSums() const {
  Vector out(cols_);
  ForEach([&](size_t, size_t j, double v) { out(j) += v; });
  return out;
}

bool SparseMatrix::Equals(const SparseMatrix& other, double tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  // Compare via dense-free merge per row so that explicit zeros and entry
  // ordering cannot cause false mismatches.
  for (size_t i = 0; i < rows_; ++i) {
    size_t ka = row_ptr_[i], kb = other.row_ptr_[i];
    const size_t ea = row_ptr_[i + 1], eb = other.row_ptr_[i + 1];
    while (ka < ea || kb < eb) {
      uint32_t ca = ka < ea ? col_idx_[ka] : UINT32_MAX;
      uint32_t cb = kb < eb ? other.col_idx_[kb] : UINT32_MAX;
      double va = 0.0, vb = 0.0;
      if (ca <= cb) va = values_[ka++];
      if (cb <= ca) vb = other.values_[kb++];
      if (std::abs(va - vb) > tolerance) return false;
    }
  }
  return true;
}

SparseMatrix SparseMatrix::PaddedTo(size_t rows, size_t cols) const {
  ACTIVEITER_CHECK_MSG(rows >= rows_ && cols >= cols_,
                       "PaddedTo only grows a matrix");
  SparseMatrix out = *this;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_.resize(rows + 1, col_idx_.size());
  return out;
}

}  // namespace activeiter
