// Bitwise comparison of two CSR matrices in tests: shape, row pointers,
// column indices and the bits of every stored value. Unlike
// Matrix::MaxAbsDiff(...) == 0.0 on densified copies, it tells −0.0 from
// +0.0 and a stored entry from a missing one.

#ifndef ACTIVEITER_TESTS_LINALG_CSR_BITWISE_H_
#define ACTIVEITER_TESTS_LINALG_CSR_BITWISE_H_

#include <cstring>

#include <gtest/gtest.h>

#include "src/linalg/sparse.h"

namespace activeiter {

inline ::testing::AssertionResult CsrBitwiseEqual(const SparseMatrix& a,
                                                  const SparseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  for (size_t i = 0; i < a.rows(); ++i) {
    if (a.row_ptr()[i + 1] != b.row_ptr()[i + 1]) {
      return ::testing::AssertionFailure()
             << "row pointers differ from row " << i;
    }
  }
  for (size_t k = 0; k < a.nnz(); ++k) {
    if (a.col_idx()[k] != b.col_idx()[k]) {
      return ::testing::AssertionFailure()
             << "column of entry " << k << ": " << a.col_idx()[k] << " vs "
             << b.col_idx()[k];
    }
    if (std::memcmp(&a.values()[k], &b.values()[k], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "value bits of entry " << k << ": " << a.values()[k]
             << " vs " << b.values()[k];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace activeiter

#endif  // ACTIVEITER_TESTS_LINALG_CSR_BITWISE_H_
