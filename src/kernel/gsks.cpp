#include "kernel/gsks.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "kernel/tile.hpp"
#include "la/gemm.hpp"
#include "obs/obs.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fdks::kernel {

namespace {

// One fused row-stripe: for rows [i0, i0+mi) of the logical block,
// sweep all column tiles and reduce each kernel tile into y while it is
// hot (the block is never stored). A B = 1 accumulator beats reducing
// each tile with a 1-column gemm_raw.
void fused_row_stripe(const KernelMatrix& km, std::span<const index_t> rows,
                      std::span<const index_t> cols,
                      std::span<const double> u, std::span<double> y,
                      double alpha, index_t i0, index_t mi) {
  const index_t n = static_cast<index_t>(cols.size());
  TileEvaluator tile(km);
  tile.set_rows(rows, i0, mi);
  std::vector<double> ktile(static_cast<size_t>(kTileRows * kTileCols));
  std::vector<double> acc(static_cast<size_t>(mi), 0.0);

  for (index_t j0 = 0; j0 < n; j0 += kTileCols) {
    const index_t nj = std::min(kTileCols, n - j0);
    tile.eval(cols, j0, nj, ktile.data(), kTileRows);
    for (index_t j = 0; j < nj; ++j) {
      const double uj = u[j0 + j];
      if (uj == 0.0) continue;
      const double* kcol = ktile.data() + j * kTileRows;
      for (index_t i = 0; i < mi; ++i)
        acc[static_cast<size_t>(i)] += kcol[i] * uj;
    }
  }
  for (index_t i = 0; i < mi; ++i) y[i0 + i] += alpha * acc[static_cast<size_t>(i)];
}

}  // namespace

void gsks_apply(const KernelMatrix& km, std::span<const index_t> rows,
                std::span<const index_t> cols, std::span<const double> u,
                std::span<double> y, double alpha) {
  const index_t m = static_cast<index_t>(rows.size());
  obs::add("gsks.calls");
  // Gram-tile GEMM flops are counted by gemm_raw; this is the fused
  // kernel-evaluation volume on top of them. The histogram exposes the
  // call-size distribution (skeleton sizes drive it).
  obs::add("gsks.kernel_evals", double(m) * double(cols.size()));
  obs::hist("gsks.evals_per_call", double(m) * double(cols.size()));
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
  for (index_t i0 = 0; i0 < m; i0 += kTileRows) {
    const index_t mi = std::min(kTileRows, m - i0);
    fused_row_stripe(km, rows, cols, u, y, alpha, i0, mi);
  }
}

namespace {

// Block-RHS row-stripe: evaluate each kernel tile once, then reduce it
// against ALL B columns of U with one GEMM while the tile is hot. The
// per-column variant above re-evaluates every kernel entry B times; here
// the evaluation cost is amortized across the block.
void fused_row_stripe_block(const KernelMatrix& km,
                            std::span<const index_t> rows,
                            std::span<const index_t> cols,
                            la::ConstMatrixView u, la::MatrixView y,
                            double alpha, index_t i0, index_t mi) {
  const index_t n = static_cast<index_t>(cols.size());
  TileEvaluator tile(km);
  tile.set_rows(rows, i0, mi);
  std::vector<double> ktile(static_cast<size_t>(kTileRows * kTileCols));

  for (index_t j0 = 0; j0 < n; j0 += kTileCols) {
    const index_t nj = std::min(kTileCols, n - j0);
    tile.eval(cols, j0, nj, ktile.data(), kTileRows);
    // Y[i0:i0+mi, :] += alpha * Ktile * U[j0:j0+nj, :].
    la::gemm_raw(mi, u.cols(), nj, alpha, ktile.data(), kTileRows,
                 u.col(0) + j0, u.ld(), 1.0, y.col(0) + i0, y.ld());
  }
}

}  // namespace

void gsks_apply_block(const KernelMatrix& km, std::span<const index_t> rows,
                      std::span<const index_t> cols, la::ConstMatrixView u,
                      la::MatrixView y, double alpha) {
  const index_t m = static_cast<index_t>(rows.size());
  if (u.rows() != static_cast<index_t>(cols.size()) || y.rows() != m ||
      u.cols() != y.cols())
    throw std::invalid_argument("gsks_apply_block: shape mismatch");
  if (u.cols() == 1) {  // Single column: the accumulator stripe.
    gsks_apply(km, rows, cols, u.col_span(0), y.col_span(0), alpha);
    return;
  }
  obs::add("gsks.calls");
  // One evaluation per block entry regardless of B — the whole point of
  // the fused block apply (B vector applies would pay this B times).
  obs::add("gsks.kernel_evals", double(m) * double(cols.size()));
  obs::hist("gsks.evals_per_call", double(m) * double(cols.size()));
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
  for (index_t i0 = 0; i0 < m; i0 += kTileRows) {
    const index_t mi = std::min(kTileRows, m - i0);
    fused_row_stripe_block(km, rows, cols, u, y, alpha, i0, mi);
  }
}

}  // namespace fdks::kernel
