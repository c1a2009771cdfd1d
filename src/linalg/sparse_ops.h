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

// Δ kernels: the delta-aware feature engine (delta_features.h) carries
// each cached count matrix P from one epoch to the next as P + ΔP, where
// ΔP = P_now − P_prev is a signed CSR matrix of P's current shape with its
// zeros dropped. Counts and their changes are integers below 2⁵³, so every
// sum below is exact in any order, and last epoch's product plus its exact
// change is bitwise the product recomputed in full (same values, no stored
// zeros). Nothing here is pooled: the engine refreshes on one thread.

/// base + delta, with `base` padded to delta's shape (its missing rows and
/// columns are empty) and zeros dropped. Rows where `delta` stores nothing
/// are bulk-copied from `base`; each other row is one linear merge of the
/// two rows. Requires base to be no larger than delta (checked). Counts
/// the copied rows on "linalg.spgemm.rows_spliced" and the merged ones on
/// "linalg.spgemm.rows_recomputed".
SparseMatrix AddDelta(const SparseMatrix& base, const SparseMatrix& delta);

/// now − before over the listed rows of `now` (sorted, unique, < rows;
/// checked), `before` padded to now's shape; every other row is empty.
SparseMatrix RowsDelta(const SparseMatrix& now, const SparseMatrix& before,
                       const std::vector<uint32_t>& rows);

/// Δ(L·R) = ΔL·R + L·ΔR − ΔL·ΔR from the CURRENT l and r and their changes
/// (nullptr: unchanged), so no previous operand is needed. One Gustavson
/// pass, taking the last two terms as (L − ΔL)·ΔR: a row of L is scanned
/// only when ΔR is given, and only its entries that meet a changed row of
/// R do any work. Shapes checked.
SparseMatrix SpGemmDelta(const SparseMatrix& l, const SparseMatrix* dl,
                         const SparseMatrix& r, const SparseMatrix* dr);

/// Δ of the stack B₁ ∘ … ∘ Bₖ from the current branches and their changes
/// (nullptr: unchanged). Only rows some ΔBᵢ stores an entry in can change,
/// and each takes the cheaper of two exact paths, chosen by counting
/// entries:
///   * with `before`, the stack's last value (nullable, padded to the
///     branches' shape), re-intersect the row from its shortest branch
///     (each entry galloping to its place in the longer rows) and diff it
///     against before's row — when those two rows hold fewer entries than
///     the row's Δs;
///   * otherwise evaluate only the Δ entries: the stack is ∏ Bᵢ now and
///     ∏ (Bᵢ − ΔBᵢ) before, looked up branch by branch, shortest row
///     first, dropping an entry as soon as both products are zero.
/// Shapes checked.
SparseMatrix HadamardDelta(const SparseMatrix* before,
                           const std::vector<const SparseMatrix*>& branches,
                           const std::vector<const SparseMatrix*>& deltas);

/// Δ of FaceSplitHadamard(xs, ys) = F·Gᵀ (F = X₁ ⊙ … ⊙ Xₖ, G = Y₁ᵀ ⊙ … ⊙
/// Yₖᵀ) from the current xs, ys and their changes dxs, dys (nullptr:
/// unchanged): ΔF·Gᵀ + F·ΔGᵀ − ΔF·ΔGᵀ. ΔF holds only the left posts some
/// ΔXᵢ changes and ΔG only the right posts some ΔYᵢ changes; each join
/// numbers the few tuples of one Δ side and makes one pass over the other
/// side's posts, so no tuple key outgrows 64 bits. Shapes checked.
SparseMatrix FaceSplitHadamardDelta(
    const std::vector<const SparseMatrix*>& xs,
    const std::vector<const SparseMatrix*>& dxs,
    const std::vector<const SparseMatrix*>& ys,
    const std::vector<const SparseMatrix*>& dys);

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
