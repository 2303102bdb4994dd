// The three kernel-summation schemes of §II-D / Table IV, behind one
// operator interface.
//
//   StoredGemv — materialize K(rows, cols) once at construction; every
//                apply is a GEMV. Fastest apply, O(mn) storage.
//   ReevalGemm — materialize the block on every apply, then GEMV.
//                O(1) persistent storage but pays O(mnd) work and O(mn)
//                traffic per apply (the "best-known" baseline GSKS beats).
//   Gsks       — fused matrix-free apply; O(1) persistent storage,
//                O(mnd) FLOPs but only O(md + nd) traffic per apply.
//
// The factorization stores one of these per off-diagonal factor V; the
// scheme choice is the storage/time trade the paper studies.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "kernel/gsks.hpp"
#include "kernel/kernel_matrix.hpp"

namespace fdks::kernel {

enum class Scheme { StoredGemv, ReevalGemm, Gsks };

const char* scheme_name(Scheme s);

/// Linear operator for a kernel sub-block B = K(rows, cols).
class KernelBlockOp {
 public:
  KernelBlockOp() = default;

  /// km must outlive the operator. Index lists are copied.
  KernelBlockOp(const KernelMatrix* km, std::vector<index_t> rows,
                std::vector<index_t> cols, Scheme scheme);

  /// Checkpoint-restore constructor (src/ckpt): adopt a previously
  /// materialized stored block instead of re-evaluating the kernel. If
  /// the scheme requires a stored block and `stored` does not match the
  /// index-list dimensions, the block is re-materialized from km.
  KernelBlockOp(const KernelMatrix* km, std::vector<index_t> rows,
                std::vector<index_t> cols, Scheme scheme, Matrix stored);

  index_t rows() const { return static_cast<index_t>(rows_.size()); }
  index_t cols() const { return static_cast<index_t>(cols_.size()); }
  Scheme scheme() const { return scheme_; }
  // Checkpoint-save access to the operator's persistent state.
  const std::vector<index_t>& row_ids() const { return rows_; }
  const std::vector<index_t>& col_ids() const { return cols_; }
  const Matrix& stored_block() const { return stored_; }

  /// y = beta*y + alpha * B * u: the B = 1 view of apply_block.
  void apply(std::span<const double> u, std::span<double> y,
             double alpha = 1.0, double beta = 0.0) const;

  /// Y = beta*Y + alpha * B * U for a block of right-hand sides, in
  /// place on views. One GEMM (stored / re-evaluated block) or one fused
  /// GSKS block apply — the operator's matrices are streamed once for
  /// the whole batch instead of once per column.
  void apply_block(la::ConstMatrixView u, la::MatrixView y,
                   double alpha = 1.0, double beta = 0.0) const;

  /// Y = B * U for a block of right-hand sides.
  Matrix apply_block(const Matrix& u) const;

  /// Materialize the block (tests, Z assembly).
  Matrix to_dense() const;

  /// Bytes of persistent storage this operator holds (the Table IV
  /// storage axis).
  size_t stored_bytes() const;

 private:
  const KernelMatrix* km_ = nullptr;
  std::vector<index_t> rows_;
  std::vector<index_t> cols_;
  Scheme scheme_ = Scheme::StoredGemv;
  Matrix stored_;  ///< Only populated for StoredGemv.
};

}  // namespace fdks::kernel
