// Lazy kernel-matrix view over a point set.
//
// Points are stored d-by-N column-major (one column per point, the
// layout ASKIT uses), so a block K(I, J) is produced from the point
// columns X(:,I) and X(:,J). Squared norms are cached once — every
// kernel evaluation then needs only the inner product.
#pragma once

#include <span>
#include <vector>

#include "kernel/kernels.hpp"
#include "la/matrix.hpp"

namespace fdks::kernel {

using la::Matrix;
using la::index_t;

class KernelMatrix {
 public:
  /// points: d-by-N, one point per column. The matrix is copied; the
  /// view must outlive nothing.
  KernelMatrix(Matrix points, Kernel k);

  index_t n() const { return points_.cols(); }
  index_t dim() const { return points_.rows(); }
  const Kernel& kernel() const { return kernel_; }
  const Matrix& points() const { return points_; }
  double sqnorm(index_t i) const { return sqnorms_[static_cast<size_t>(i)]; }

  /// Single entry K(i, j): the scalar reference (Kernel::eval_gram on
  /// a sequential dot product) that the tile path is tested against.
  double entry(index_t i, index_t j) const;

  /// Materialize K(rows, cols) as a dense |rows|-by-|cols| block, built
  /// tile by tile through kernel/tile.hpp.
  Matrix block(std::span<const index_t> rows,
               std::span<const index_t> cols) const;

  /// Materialize the contiguous block K([r0,r1), [c0,c1)) — index ranges
  /// into the point ordering, the common case after tree permutation.
  Matrix block_range(index_t r0, index_t r1, index_t c0, index_t c1) const;

  /// Full N-by-N matrix; only sensible for small N (tests).
  Matrix full() const;

 private:
  Matrix points_;
  Kernel kernel_;
  std::vector<double> sqnorms_;
};

}  // namespace fdks::kernel
