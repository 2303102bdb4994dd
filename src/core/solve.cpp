// Recursive solve (Algorithm II.3): apply (lambda I + K~_αα)^-1 via the
// stored SMW factors.
#include <stdexcept>

#include "core/factor_tree.hpp"
#include "la/gemm.hpp"

namespace fdks::core {

// Every step operates on all B columns at once through strided views
// into the caller's storage; a single right-hand side is the B = 1 view.
// Nothing is copied in or out. Leaf solves stream each factor column
// across all RHS columns (TRSM-style), and the V / Z / W corrections are
// single GEMM-width operations over the batch.
void FactorTree::solve_subtree(index_t id, la::MatrixView u,
                               const CancelToken* cancel) const {
  const tree::Node& nd = h_->tree().node(id);
  const NodeFactor& f = nf_[static_cast<size_t>(id)];
  if (!f.factored) throw std::logic_error("solve_subtree: not factorized");
  if (u.rows() != nd.size())
    throw std::invalid_argument("solve_subtree: block rhs shape mismatch");

  if (nd.is_leaf()) {
    if (f.leaf_uses_chol)
      la::chol_solve(f.leaf_chol, u);
    else
      la::lu_solve(f.leaf_lu, u);
    return;
  }

  // Cooperative cancellation at level boundaries: one clock read per
  // internal node, never inside the dense kernels.
  if (cancel) cancel->check("FactorTree::solve_subtree");

  const index_t nl = h_->tree().node(nd.left).size();
  const index_t nr = h_->tree().node(nd.right).size();
  const index_t sl = f.v_lr.rows();
  const index_t sr = f.v_rl.rows();
  const index_t nrhs = u.cols();

  la::MatrixView utop = u.block(0, 0, nl, nrhs);
  la::MatrixView ubot = u.block(nl, 0, nr, nrhs);

  // U' = D^-1 U by recursion on the children, in place.
  solve_subtree(nd.left, utop, cancel);
  solve_subtree(nd.right, ubot, cancel);

  // T = V U' = [K(l~, X_r) U'_r ; K(r~, X_l) U'_l], then T = Z^-1 T.
  Matrix t(sl + sr, nrhs);
  la::MatrixView tv(t);
  f.v_lr.apply_block(la::ConstMatrixView(ubot), tv.block(0, 0, sl, nrhs));
  f.v_rl.apply_block(la::ConstMatrixView(utop), tv.block(sl, 0, sr, nrhs));
  la::lu_solve(f.z_lu, tv);

  // U <- U' - W T with W = blockdiag(P^_l, P^_r), one batched
  // apply_phat per child.
  apply_phat(nd.left, la::ConstMatrixView(tv.block(0, 0, sl, nrhs)), utop,
             -1.0);
  apply_phat(nd.right, la::ConstMatrixView(tv.block(sl, 0, sr, nrhs)), ubot,
             -1.0);
}

}  // namespace fdks::core
