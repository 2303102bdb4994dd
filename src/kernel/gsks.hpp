// GSKS-style fused kernel summation (§II-D).
//
// Computes y += alpha * K(rows, cols) * u without ever materializing the
// |rows|-by-|cols| kernel block: the block is produced tile-by-tile from
// a rank-d update (Gram tile), the kernel function is applied while the
// tile is hot in cache, and the tile is immediately reduced against u.
// Memory traffic is O(|rows| d + |cols| d) instead of O(|rows||cols|),
// which is the entire point of GSKS. The tiles come from kernel/tile.hpp:
// a gemm_raw Gram tile mapped column by column through a vector exp,
// the step the paper's AVX2/AVX-512 micro-kernels vectorize (Table I).
// The Gram GEMM itself runs at the baseline ISA.
#pragma once

#include <span>

#include "kernel/kernel_matrix.hpp"

namespace fdks::kernel {

/// y += alpha * K(rows, cols) * u. Sizes: |y| = |rows|, |u| = |cols|.
void gsks_apply(const KernelMatrix& km, std::span<const index_t> rows,
                std::span<const index_t> cols, std::span<const double> u,
                std::span<double> y, double alpha = 1.0);

/// Y += alpha * K(rows, cols) * U for a block of right-hand sides,
/// fused over the whole block: each kernel tile is evaluated ONCE and
/// multiplied against all B columns as a GEMM, so the per-apply kernel
/// evaluation cost is amortized B-fold relative to B vector applies
/// (the batching win of the multi-RHS serving path). Shapes:
/// U = |cols| x B, Y = |rows| x B.
void gsks_apply_block(const KernelMatrix& km, std::span<const index_t> rows,
                      std::span<const index_t> cols, la::ConstMatrixView u,
                      la::MatrixView y, double alpha = 1.0);

}  // namespace fdks::kernel
