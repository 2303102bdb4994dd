// Treecode matvecs for HMatrix: one block implementation on [N x B]
// panels, with the span overloads as its B = 1 view.
#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "askit/hmatrix.hpp"
#include "kernel/gsks.hpp"
#include "la/blas1.hpp"
#include "la/gemm.hpp"

namespace fdks::askit {

namespace {

using la::ConstMatrixView;
using la::MatrixView;

/// Rows [nd.begin, nd.end) of a tree-order panel.
ConstMatrixView node_rows(ConstMatrixView p, const tree::Node& nd) {
  return p.block(nd.begin, 0, nd.size(), p.cols());
}

MatrixView node_rows(MatrixView p, const tree::Node& nd) {
  return p.block(nd.begin, 0, nd.size(), p.cols());
}

/// Gather pass of the source form: skeleton weights W~_c = P_{c~,c} W_c
/// of every node, telescoped children first (W in tree order). A node
/// above the frontier carries its children's weights stacked, the
/// weights of its effective skeleton.
std::vector<Matrix> gather_skeleton_weights(const HMatrix& h,
                                            ConstMatrixView wt) {
  const auto nn = static_cast<index_t>(h.tree().nodes().size());
  const index_t nb = wt.cols();
  std::vector<Matrix> ws(static_cast<size_t>(nn));
  // Reverse id order is post-order (children first).
  for (index_t id = nn - 1; id >= 0; --id) {
    const tree::Node& nd = h.tree().node(id);
    if (nd.parent < 0) continue;  // The root has no sibling to act on.
    const NodeSkeleton& sk = h.skeleton(id);
    Matrix& out = ws[static_cast<size_t>(id)];
    if (nd.is_leaf()) {
      const ConstMatrixView wa = node_rows(wt, nd);
      out = Matrix(sk.skeletonized ? sk.rank() : nd.size(), nb);
      if (sk.skeletonized)
        la::gemm(1.0, sk.proj, wa, 0.0, out);
      else  // Unskeletonized: its effective skeleton is its points.
        for (index_t j = 0; j < nb; ++j)
          std::copy(wa.col(j), wa.col(j) + wa.rows(), out.col(j));
      continue;
    }
    const Matrix& wl = ws[static_cast<size_t>(nd.left)];
    const Matrix& wr = ws[static_cast<size_t>(nd.right)];
    Matrix cand(wl.rows() + wr.rows(), nb);  // [W~_l; W~_r].
    for (index_t j = 0; j < nb; ++j) {
      std::copy(wl.col(j), wl.col(j) + wl.rows(), cand.col(j));
      std::copy(wr.col(j), wr.col(j) + wr.rows(), cand.col(j) + wl.rows());
    }
    if (sk.skeletonized) {
      out = Matrix(sk.rank(), nb);
      la::gemm(1.0, sk.proj, cand, 0.0, out);
    } else {
      out = std::move(cand);  // Effective skeleton: plain concatenation.
    }
  }
  return ws;
}

/// Scatter pass of the target form: Y_c += (telescoped P_{c~,c})^T Z at
/// node c. Z (|effective skeleton(c)| x B) travels transposed, so each
/// step is Z^T P with P as stored — no transposed copy of P — and at
/// B = 1 every entry is the transposed GEMV's dot product, in its order.
void scatter_from_skeleton(const HMatrix& h, index_t node, ConstMatrixView zt,
                           MatrixView yt) {
  const tree::Node& nd = h.tree().node(node);
  const NodeSkeleton& sk = h.skeleton(node);
  Matrix pz;
  if (sk.skeletonized) {
    pz = Matrix(zt.rows(), sk.proj.cols());
    la::gemm(1.0, zt, sk.proj, 0.0, pz);
    zt = pz;
  }
  if (nd.is_leaf()) {  // Y_c += Z^T (pointwise if c is unskeletonized).
    const MatrixView ya = node_rows(yt, nd);
    for (index_t j = 0; j < ya.cols(); ++j)
      for (index_t i = 0; i < ya.rows(); ++i) ya(i, j) += zt(j, i);
    return;
  }
  const auto ls =
      static_cast<index_t>(h.effective_skeleton(nd.left).size());
  scatter_from_skeleton(h, nd.left, zt.block(0, 0, zt.rows(), ls), yt);
  scatter_from_skeleton(h, nd.right,
                        zt.block(0, ls, zt.rows(), zt.cols() - ls), yt);
}

}  // namespace

std::vector<double> HMatrix::to_tree_order(std::span<const double> v) const {
  const auto& perm = tree_.perm();
  std::vector<double> out(v.size());
  for (size_t p = 0; p < v.size(); ++p)
    out[p] = v[static_cast<size_t>(perm[p])];
  return out;
}

std::vector<double> HMatrix::from_tree_order(std::span<const double> v) const {
  const auto& perm = tree_.perm();
  std::vector<double> out(v.size());
  for (size_t p = 0; p < v.size(); ++p)
    out[static_cast<size_t>(perm[p])] = v[p];
  return out;
}

void HMatrix::treecode(ConstMatrixView w, MatrixView y, double lambda,
                       bool source_form) const {
  const index_t nn = n();
  const index_t nb = w.cols();
  if (w.rows() != nn || y.rows() != nn || y.cols() != nb)
    throw std::invalid_argument("HMatrix::apply: size mismatch");
  const auto& perm = tree_.perm();
  const auto nodes = static_cast<index_t>(tree_.nodes().size());

  // W in tree order is the apply's only N x B panel. The product
  // accumulates in tree order in Y's own storage (W was copied out, so
  // Y may alias it) and is permuted back one column at a time.
  Matrix wpanel(nn, nb);
  for (index_t j = 0; j < nb; ++j)
    for (index_t p = 0; p < nn; ++p)
      wpanel(p, j) = w(perm[static_cast<size_t>(p)], j);
  const ConstMatrixView wt = wpanel;
  for (index_t j = 0; j < nb; ++j) std::fill(y.col(j), y.col(j) + nn, 0.0);

  // Point ids in tree order: a node's points are a subspan.
  std::vector<index_t> ids(static_cast<size_t>(nn));
  std::iota(ids.begin(), ids.end(), index_t{0});
  const auto pts = [&ids](const tree::Node& nd) {
    return std::span<const index_t>(ids).subspan(
        static_cast<size_t>(nd.begin), static_cast<size_t>(nd.size()));
  };

  // Diagonal blocks: exact leaf interactions K_aa W_a.
  for (index_t id = 0; id < nodes; ++id) {
    const tree::Node& nd = tree_.node(id);
    if (!nd.is_leaf()) continue;
    kernel::gsks_apply_block(km_, pts(nd), pts(nd), node_rows(wt, nd),
                             node_rows(y, nd));
  }

  if (source_form) {
    // Classic ASKIT: Y_l += K(X_l, r~eff) W~_r and symmetrically.
    const std::vector<Matrix> ws = gather_skeleton_weights(*this, wt);
    for (index_t id = 0; id < nodes; ++id) {
      const tree::Node& nd = tree_.node(id);
      if (nd.is_leaf()) continue;
      const tree::Node& l = tree_.node(nd.left);
      const tree::Node& r = tree_.node(nd.right);
      kernel::gsks_apply_block(km_, pts(l), effective_skeleton(nd.right),
                               ws[static_cast<size_t>(nd.right)],
                               node_rows(y, l));
      kernel::gsks_apply_block(km_, pts(r), effective_skeleton(nd.left),
                               ws[static_cast<size_t>(nd.left)],
                               node_rows(y, r));
    }
  } else {
    // Target-interpolation form (eq. 6): Z_l = K(l~eff, X_r) W_r, then
    // scatter Z_l through the telescoped projections into Y_l.
    for (index_t id = 0; id < nodes; ++id) {
      const tree::Node& nd = tree_.node(id);
      if (nd.is_leaf()) continue;
      const tree::Node& l = tree_.node(nd.left);
      const tree::Node& r = tree_.node(nd.right);
      const auto& leff = effective_skeleton(nd.left);
      const auto& reff = effective_skeleton(nd.right);

      Matrix zl(static_cast<index_t>(leff.size()), nb);
      kernel::gsks_apply_block(km_, leff, pts(r), node_rows(wt, r), zl);
      scatter_from_skeleton(*this, nd.left, zl.transposed(), y);

      Matrix zr(static_cast<index_t>(reff.size()), nb);
      kernel::gsks_apply_block(km_, reff, pts(l), node_rows(wt, l), zr);
      scatter_from_skeleton(*this, nd.right, zr.transposed(), y);
    }
  }

  std::vector<double> col(static_cast<size_t>(nn));
  for (index_t j = 0; j < nb; ++j) {
    std::copy(y.col(j), y.col(j) + nn, col.begin());
    for (index_t p = 0; p < nn; ++p) {
      const double v = col[static_cast<size_t>(p)];
      y(perm[static_cast<size_t>(p)], j) =
          lambda != 0.0 ? v + lambda * wt(p, j) : v;
    }
  }
}

void HMatrix::apply(ConstMatrixView w, MatrixView y, double lambda) const {
  treecode(w, y, lambda, /*source_form=*/false);
}

void HMatrix::apply(std::span<const double> w, std::span<double> y,
                    double lambda) const {
  apply(la::column_view(w), la::column_view(y), lambda);
}

void HMatrix::apply_source(ConstMatrixView w, MatrixView y,
                           double lambda) const {
  treecode(w, y, lambda, /*source_form=*/true);
}

void HMatrix::apply_source(std::span<const double> w, std::span<double> y,
                           double lambda) const {
  apply_source(la::column_view(w), la::column_view(y), lambda);
}

std::vector<double> HMatrix::relative_residual(ConstMatrixView w,
                                               ConstMatrixView u,
                                               double lambda) const {
  if (u.rows() != w.rows() || u.cols() != w.cols())
    throw std::invalid_argument("HMatrix::relative_residual: size mismatch");
  Matrix kw(w.rows(), w.cols());
  apply(w, kw, lambda);
  std::vector<double> rel(static_cast<size_t>(w.cols()), 0.0);
  for (index_t j = 0; j < w.cols(); ++j) {
    const double un = la::nrm2(u.col_span(j));
    if (un == 0.0) continue;
    double* r = kw.col(j);
    for (index_t i = 0; i < w.rows(); ++i) r[i] = u(i, j) - r[i];
    rel[static_cast<size_t>(j)] =
        la::nrm2(std::span<const double>(r, static_cast<size_t>(w.rows()))) /
        un;
  }
  return rel;
}

double HMatrix::relative_residual(std::span<const double> w,
                                  std::span<const double> u,
                                  double lambda) const {
  return relative_residual(la::column_view(w), la::column_view(u), lambda)[0];
}

}  // namespace fdks::askit
