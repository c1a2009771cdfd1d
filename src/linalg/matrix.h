// Dense row-major matrix of doubles.
//
// The learners only ever form small dense matrices: the feature matrix X is
// |H|×d with d ≈ 32, and the normal-equation system XᵀX + λI is d×d. Dense
// O(n³) routines are therefore more than adequate; large user×user count
// matrices live in the sparse CSR type instead (see sparse.h).

#ifndef ACTIVEITER_LINALG_MATRIX_H_
#define ACTIVEITER_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/common/status.h"
#include "src/linalg/vector.h"

namespace activeiter {

/// Dense row-major matrix with bounds-checked access.
class Matrix {
 public:
  Matrix() = default;

  /// rows×cols zero matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double operator()(size_t i, size_t j) const {
    ACTIVEITER_CHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double& operator()(size_t i, size_t j) {
    ACTIVEITER_CHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  const double* row_data(size_t i) const {
    ACTIVEITER_CHECK(i < rows_);
    return data_.data() + i * cols_;
  }
  double* row_data(size_t i) {
    ACTIVEITER_CHECK(i < rows_);
    return data_.data() + i * cols_;
  }

  /// Copies row i into a Vector.
  Vector Row(size_t i) const;

  /// Matrix transpose.
  Matrix Transpose() const;

  /// this · other (dimension-checked).
  Matrix MatMul(const Matrix& other) const;

  /// this · v (dimension-checked): each row sums in ascending column order
  /// from 0.0, so entry i is bitwise Row(i).Dot(v).
  Vector MatVec(const Vector& v) const;

  /// thisᵀ · v, computed without materialising the transpose.
  Vector TransposeMatVec(const Vector& v) const;

  /// Gram matrix thisᵀ·this (cols×cols): entry (j, k) sums x_ij·x_ik over
  /// the rows i in ascending order from 0.0. The ridge forms it from
  /// compressed rows instead; this loop is the reference it matches.
  Matrix Gram() const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double scalar) const;
  Matrix& operator+=(const Matrix& other);

  /// Adds `value` to every diagonal entry (λI shift).
  void AddDiagonal(double value);

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Max |a_ij − b_ij|; matrices must have identical shape.
  static double MaxAbsDiff(const Matrix& a, const Matrix& b);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_LINALG_MATRIX_H_
