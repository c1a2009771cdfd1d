#include "src/linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace activeiter {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::Row(size_t i) const {
  ACTIVEITER_CHECK(i < rows_);
  Vector out(cols_);
  const double* src = row_data(i);
  for (size_t j = 0; j < cols_; ++j) out(j) = src[j];
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    const double* src = row_data(i);
    for (size_t j = 0; j < cols_; ++j) out(j, i) = src[j];
  }
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  ACTIVEITER_CHECK_MSG(cols_ == other.rows_, "MatMul shape mismatch");
  Matrix out(rows_, other.cols_);
  // i-k-j loop order keeps the inner loop contiguous in both inputs.
  for (size_t i = 0; i < rows_; ++i) {
    const double* a_row = row_data(i);
    double* out_row = out.row_data(i);
    for (size_t k = 0; k < cols_; ++k) {
      double a = a_row[k];
      if (a == 0.0) continue;
      const double* b_row = other.row_data(k);
      for (size_t j = 0; j < other.cols_; ++j) out_row[j] += a * b_row[j];
    }
  }
  return out;
}

Vector Matrix::MatVec(const Vector& v) const {
  ACTIVEITER_CHECK_MSG(cols_ == v.size(), "MatVec shape mismatch");
  Vector out(rows_);
  for (size_t i = 0; i < rows_; ++i) {
    const double* a_row = row_data(i);
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += a_row[j] * v(j);
    out(i) = acc;
  }
  return out;
}

Vector Matrix::TransposeMatVec(const Vector& v) const {
  ACTIVEITER_CHECK_MSG(rows_ == v.size(), "TransposeMatVec shape mismatch");
  Vector out(cols_);
  for (size_t i = 0; i < rows_; ++i) {
    double vi = v(i);
    if (vi == 0.0) continue;
    const double* a_row = row_data(i);
    for (size_t j = 0; j < cols_; ++j) out(j) += a_row[j] * vi;
  }
  return out;
}

Matrix Matrix::Gram() const {
  Matrix out(cols_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    const double* a_row = row_data(i);
    for (size_t j = 0; j < cols_; ++j) {
      for (size_t k = j; k < cols_; ++k) out(j, k) += a_row[j] * a_row[k];
    }
  }
  // Mirror the upper triangle.
  for (size_t j = 0; j < cols_; ++j) {
    for (size_t k = j + 1; k < cols_; ++k) out(k, j) = out(j, k);
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  ACTIVEITER_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out = *this;
  for (auto& v : out.data_) v *= scalar;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  ACTIVEITER_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

void Matrix::AddDiagonal(double value) {
  size_t n = std::min(rows_, cols_);
  for (size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  ACTIVEITER_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_);
  double acc = 0.0;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    acc = std::max(acc, std::abs(a.data_[i] - b.data_[i]));
  }
  return acc;
}

}  // namespace activeiter
