#include "kernel/kernel_matrix.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "kernel/tile.hpp"

namespace fdks::kernel {

KernelMatrix::KernelMatrix(Matrix points, Kernel k)
    : points_(std::move(points)), kernel_(k) {
  const index_t n = points_.cols();
  const index_t d = points_.rows();
  sqnorms_.resize(static_cast<size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    const double* col = points_.col(j);
    double s = 0.0;
    for (index_t i = 0; i < d; ++i) s += col[i] * col[i];
    sqnorms_[static_cast<size_t>(j)] = s;
  }
}

double KernelMatrix::entry(index_t i, index_t j) const {
  const index_t d = points_.rows();
  const double* xi = points_.col(i);
  const double* xj = points_.col(j);
  double xy = 0.0;
  for (index_t k = 0; k < d; ++k) xy += xi[k] * xj[k];
  return kernel_.eval_gram(xy, sqnorm(i), sqnorm(j));
}

Matrix KernelMatrix::block(std::span<const index_t> rows,
                           std::span<const index_t> cols) const {
  const index_t m = static_cast<index_t>(rows.size());
  const index_t n = static_cast<index_t>(cols.size());
  Matrix out(m, n);
  TileEvaluator tile(*this);
  for (index_t i0 = 0; i0 < m; i0 += kTileRows) {
    tile.set_rows(rows, i0, std::min(kTileRows, m - i0));
    for (index_t j0 = 0; j0 < n; j0 += kTileCols)
      tile.eval(cols, j0, std::min(kTileCols, n - j0), out.col(j0) + i0, m);
  }
  return out;
}

Matrix KernelMatrix::block_range(index_t r0, index_t r1, index_t c0,
                                 index_t c1) const {
  std::vector<index_t> rows(static_cast<size_t>(r1 - r0));
  std::iota(rows.begin(), rows.end(), r0);
  std::vector<index_t> cols(static_cast<size_t>(c1 - c0));
  std::iota(cols.begin(), cols.end(), c0);
  return block(rows, cols);
}

Matrix KernelMatrix::full() const { return block_range(0, n(), 0, n()); }

}  // namespace fdks::kernel
