// Sparse kernels: SpGEMM, transpose, Hadamard product, scaling, SpMV.
//
// These are the workhorses of meta-path/meta-diagram counting:
//   * chain products  (SpGemm)        — concatenating path segments,
//   * Hadamard        (Hadamard)      — stacking segments on shared nodes,
//   * transpose       (Transpose)     — reversing edge direction,
//   * row/col sums    (sparse.h)      — the normaliser of Dice proximity.

#ifndef ACTIVEITER_LINALG_SPARSE_OPS_H_
#define ACTIVEITER_LINALG_SPARSE_OPS_H_

#include "src/linalg/sparse.h"

namespace activeiter {

class ThreadPool;

/// C = A · B. Classic Gustavson row-by-row algorithm with a dense
/// accumulator sized to B.cols(). Requires A.cols() == B.rows() (checked).
///
/// When `pool` is non-null the rows of A are partitioned into contiguous
/// blocks computed concurrently; each row's arithmetic is identical to the
/// serial order, so the result is bitwise-equal to the pool == nullptr
/// path.
SparseMatrix SpGemm(const SparseMatrix& a, const SparseMatrix& b,
                    ThreadPool* pool = nullptr);

/// Aᵀ in CSR, O(nnz + rows + cols). Row-blocked two-phase (histogram +
/// stable scatter) when `pool` is non-null; output is identical either way.
SparseMatrix Transpose(const SparseMatrix& a, ThreadPool* pool = nullptr);

/// The entries of `dense` that compare unequal to 0.0, in CSR: ±0 are
/// dropped, NaN is kept. One pass over the dense storage, O(rows × cols);
/// row-blocked across `pool` when non-null, with identical output.
SparseMatrix CompressDense(const Matrix& dense, ThreadPool* pool = nullptr);

/// Delta-bounded incremental SpGEMM. Recomputes only the output rows
/// listed in `rows` (sorted, unique, < a.rows()) with the exact Gustavson
/// per-row kernel of SpGemm and splices every other row unchanged from
/// `base`, a previous product of shape a.rows() × b.cols() (pad it first
/// when the universes grew). Because SpGemm's output rows are computed
/// independently, the result is BITWISE-equal to SpGemm(a, b) whenever
/// `rows` covers every row whose product could have changed — i.e. the
/// rows of A that changed plus the rows of A that touch a changed row of
/// B (recomputing an unchanged row is harmless, so any superset works).
/// Cost: O(flops of the listed rows + nnz(base) splice copy) instead of
/// the full product.
SparseMatrix SpGemmRowUpdate(const SparseMatrix& base, const SparseMatrix& a,
                             const SparseMatrix& b,
                             const std::vector<uint32_t>& rows,
                             ThreadPool* pool = nullptr);

/// Elementwise (Hadamard) product; shapes must match (checked).
/// Row-partitioned across `pool` when non-null; bitwise-identical results.
SparseMatrix Hadamard(const SparseMatrix& a, const SparseMatrix& b,
                      ThreadPool* pool = nullptr);

/// (X₁Y₁) ∘ … ∘ (XₖYₖ) without forming any XᵢYᵢ, by the face-splitting
/// identity (X₁Y₁)∘(X₂Y₂) = (X₁⊙X₂)(Y₁ᵀ⊙Y₂ᵀ)ᵀ, where ⊙ is the row-wise
/// Kronecker product: one SpGemm whose inner dimension is the attribute
/// tuples (a₁, …, aₖ) that occur in some row of every Xᵢ, numbered densely
/// (never a₁·|A₂| + a₂, which would overflow 32 bits once |A₁|·|A₂| ≥ 2³²).
/// Cost O(nnz of the row-wise Kronecker factors + that one product), where
/// the Hadamard of k chain products pays for k of them in full.
/// Requires k ≥ 1 equal-height xs, equal-width ys and xs[i].cols() ==
/// ys[i].rows() (checked). Summation is regrouped, so the result equals
/// Hadamard(SpGemm(X₁, Y₁), SpGemm(X₂, Y₂)) bitwise when every stored value
/// is a positive integer and every sum stays below 2⁵³, as meta-diagram
/// counts do; otherwise only to rounding. Pooled and serial results are
/// identical.
SparseMatrix FaceSplitHadamard(const std::vector<const SparseMatrix*>& xs,
                               const std::vector<const SparseMatrix*>& ys,
                               ThreadPool* pool = nullptr);

/// A + B; shapes must match (checked).
SparseMatrix Add(const SparseMatrix& a, const SparseMatrix& b);

/// alpha · A.
SparseMatrix Scale(const SparseMatrix& a, double alpha);

/// y = A · x (dense result).
Vector SpMv(const SparseMatrix& a, const Vector& x);

/// Replaces every stored value with 1.0 (structure/support matrix): the
/// stored entries of `a`, an explicitly stored zero included, in O(nnz).
SparseMatrix Binarize(const SparseMatrix& a);

/// Keeps entry (i,j) of `a` only where `support` stores a nonzero.
/// This is the Lemma-2 covering-set pruning primitive.
SparseMatrix MaskBySupport(const SparseMatrix& a, const SparseMatrix& support);

}  // namespace activeiter

#endif  // ACTIVEITER_LINALG_SPARSE_OPS_H_
