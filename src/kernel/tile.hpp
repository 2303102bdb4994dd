// The one place a kernel block is evaluated: the GSKS tile (§II-D).
//
// A tile K(I, J) is built the way the paper's GSKS micro-kernels build
// it. The point panels X(:, I) and X(:, J) are packed, the Gram tile
// X(:, I)^T X(:, J) is one la::gemm_raw, and the tile is then mapped to
// kernel values column by column: the kernel-type switch sits outside
// the entry loops, and each column's exp is one call of a vector exp.
// KernelMatrix::block writes its output through this routine tile by
// tile, and both GSKS stripes (kernel/gsks.cpp) reduce its tiles.
//
// The exp is glibc libmvec's AVX2 variant, chosen once from the CPU's
// features, or std::exp where AVX2 and FMA are missing. Only the exp
// itself runs in AVX2 code: the exponent arithmetic is Kernel's own
// expression (kernels.hpp), built for the baseline ISA, so nothing can
// contract it into an FMA. For d <= 256 the Gram tile is bitwise the
// sequential dot product of KernelMatrix::entry, so a tile entry
// differs from Kernel::eval_gram only by the exp (3 ulps at most in a
// probe of 16M arguments). Every exp, the column tail's included, goes
// through the same routine, so an entry depends on its argument alone
// and a symmetric block stays bitwise symmetric. A point's Gram entry
// with itself is its cached squared norm at every d, so its distance to
// itself is exactly 0 and K(i, i) = 1 for the radial kernels.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "kernel/kernel_matrix.hpp"

namespace fdks::kernel {

/// Tile shape: the 64 x 64 Gram tile (32 KiB) plus the two packed point
/// panels stay L2-resident for the dimensions the paper sweeps (d <= 260).
inline constexpr index_t kTileRows = 64;
inline constexpr index_t kTileCols = 64;

/// Evaluates the tiles of one row stripe K(rows[i0, i0 + mi), :). It
/// owns the packed row panel and its scratch, so each thread needs its
/// own.
class TileEvaluator {
 public:
  explicit TileEvaluator(const KernelMatrix& km);

  /// Pack the stripe's rows X(:, rows[i0, i0 + mi)); mi <= kTileRows.
  void set_rows(std::span<const index_t> rows, index_t i0, index_t mi);

  /// out(0:mi, 0:nj) = K(stripe rows, cols[j0, j0 + nj)), nj <= kTileCols,
  /// into column-major storage with leading dimension ldo >= mi.
  void eval(std::span<const index_t> cols, index_t j0, index_t nj,
            double* out, index_t ldo);

 private:
  const KernelMatrix& km_;
  index_t mi_ = 0;
  std::vector<double> arow_;   // mi x d row panel.
  std::vector<double> rnorm_;  // The stripe rows' squared norms.
  // (point index, stripe row) for the stripe's rows, sorted by index.
  std::vector<std::pair<index_t, index_t>> rowpos_;
  std::vector<double> bcol_;   // d x nj column panel.
  std::vector<double> expv_;   // One column of exp values (Matern-3/2).
};

}  // namespace fdks::kernel
