// Dense reference operator shared by the treecode and solver tests:
// lambda I + K~ in tree order, assembled block by block straight from
// the skeleton projections, independent of the treecode and of the
// factorization.
#pragma once

#include "askit/hmatrix.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"

#include <span>
#include <vector>

namespace fdks::core {

/// Dense T_c^T (|c| x |eff(c)|): node c's telescoped interpolation from
/// its effective skeleton to its points, built straight from the
/// projections — independent of the treecode's scatter pass.
inline la::Matrix dense_interp_t(const askit::HMatrix& h, la::index_t c) {
  const tree::Node& nd = h.tree().node(c);
  la::Matrix below;
  if (nd.is_leaf()) {
    below = la::Matrix::identity(nd.size());
  } else {
    const la::Matrix tl = dense_interp_t(h, nd.left);
    const la::Matrix tr = dense_interp_t(h, nd.right);
    below = la::Matrix(tl.rows() + tr.rows(), tl.cols() + tr.cols());
    below.set_block(0, 0, tl);
    below.set_block(tl.rows(), tl.cols(), tr);
  }
  const askit::NodeSkeleton& sk = h.skeleton(c);
  if (!sk.skeletonized) return below;
  return la::matmul(la::Trans::No, la::Trans::Yes, below, sk.proj);
}

/// Dense lambda I + K~ in tree order (target-interpolation form, eq. 6):
/// exact leaf blocks, T_l^T K(l~eff, X_r) for every sibling pair.
inline la::Matrix dense_operator(const askit::HMatrix& h, double lambda) {
  const la::index_t n = h.n();
  std::vector<la::index_t> ids(static_cast<size_t>(n));
  for (la::index_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  const auto pts = [&ids](const tree::Node& nd) {
    return std::span<const la::index_t>(ids).subspan(
        static_cast<size_t>(nd.begin), static_cast<size_t>(nd.size()));
  };
  const auto nodes = static_cast<la::index_t>(h.tree().nodes().size());
  la::Matrix a(n, n);
  for (la::index_t id = 0; id < nodes; ++id) {
    const tree::Node& nd = h.tree().node(id);
    if (nd.is_leaf()) {
      a.set_block(nd.begin, nd.begin, h.km().block(pts(nd), pts(nd)));
      continue;
    }
    const tree::Node& l = h.tree().node(nd.left);
    const tree::Node& r = h.tree().node(nd.right);
    a.set_block(l.begin, r.begin,
                la::matmul(dense_interp_t(h, nd.left),
                           h.km().block(h.effective_skeleton(nd.left),
                                        pts(r))));
    a.set_block(r.begin, l.begin,
                la::matmul(dense_interp_t(h, nd.right),
                           h.km().block(h.effective_skeleton(nd.right),
                                        pts(l))));
  }
  for (la::index_t i = 0; i < n; ++i) a(i, i) += lambda;
  return a;
}

}  // namespace fdks::core
