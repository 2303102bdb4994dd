#include "core/hybrid.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/verify.hpp"
#include "kernel/gsks.hpp"
#include "obs/obs.hpp"

namespace fdks::core {

namespace {

/// Checkpoint-aware frontier factorization (scope "hybrid"): resume all
/// subtree factors from one file when a valid checkpoint matches,
/// otherwise factorize and persist. See SolverOptions::checkpoint_dir.
void factorize_roots_ckpt(FactorTree& ft, std::span<const index_t> roots,
                          bool compute_phat) {
  ckpt::load_or_factorize(ft, roots, "factors_hybrid.ckpt", "hybrid", [&] {
    for (index_t a : roots) ft.factorize_subtree(a, compute_phat);
  });
}

}  // namespace

SolveCode gmres_code(const iter::GmresResult& r) {
  if (r.breakdown) return SolveCode::Breakdown;
  if (r.stagnated) return SolveCode::Stagnated;
  return r.converged && !r.nonfinite ? SolveCode::Ok : SolveCode::NotConverged;
}

std::vector<index_t> frontier_offsets(const HMatrix& h) {
  std::vector<index_t> offsets{0};
  for (index_t a : h.frontier())
    offsets.push_back(offsets.back() +
                      static_cast<index_t>(h.skeleton(a).skel.size()));
  return offsets;
}

void frontier_matvec_v(const HMatrix& h, std::span<const index_t> offsets,
                       std::span<const index_t> pts, la::ConstMatrixView q,
                       la::MatrixView z) {
  const index_t begin = pts.empty() ? 0 : pts.front();
  const index_t end = begin + static_cast<index_t>(pts.size());
  if (q.rows() != end - begin || z.rows() != offsets.back() ||
      q.cols() != z.cols())
    throw std::invalid_argument("frontier_matvec_v: shape mismatch");
  const index_t nb = q.cols();
  for (index_t j = 0; j < nb; ++j)
    std::fill(z.col(j), z.col(j) + z.rows(), 0.0);
  const auto& frontier = h.frontier();
  for (size_t ai = 0; ai < frontier.size(); ++ai) {
    const tree::Node& nd = h.tree().node(frontier[ai]);
    const auto& skel = h.skeleton(frontier[ai]).skel;
    la::MatrixView za = z.block(offsets[ai], 0,
                                static_cast<index_t>(skel.size()), nb);
    // K(a~, X \ a) q = K(a~, X) q - K(a~, X_a) q_a: fused block sweeps
    // (each kernel tile evaluated once for all B columns), nothing
    // materialized (matrix-free V, the paper's storage saving).
    kernel::gsks_apply_block(h.km(), skel, pts, q, za, 1.0);
    if (nd.begin < begin || nd.end > end) continue;
    kernel::gsks_apply_block(
        h.km(), skel,
        pts.subspan(static_cast<size_t>(nd.begin - begin),
                    static_cast<size_t>(nd.size())),
        q.block(nd.begin - begin, 0, nd.size(), nb), za, -1.0);
  }
}

void frontier_matvec_w(const FactorTree& ft, std::span<const index_t> offsets,
                       index_t begin, la::ConstMatrixView z, la::MatrixView q,
                       double alpha, double beta) {
  const HMatrix& h = ft.hmatrix();
  const index_t end = begin + q.rows();
  if (z.rows() != offsets.back() || q.cols() != z.cols())
    throw std::invalid_argument("frontier_matvec_w: shape mismatch");
  const index_t nb = q.cols();
  if (beta != 1.0)
    for (index_t j = 0; j < nb; ++j)
      for (index_t i = 0; i < q.rows(); ++i)
        q(i, j) = beta == 0.0 ? 0.0 : beta * q(i, j);
  const auto& frontier = h.frontier();
  for (size_t ai = 0; ai < frontier.size(); ++ai) {
    const tree::Node& nd = h.tree().node(frontier[ai]);
    if (nd.begin < begin || nd.end > end) continue;
    const auto sa = static_cast<index_t>(h.skeleton(frontier[ai]).skel.size());
    ft.apply_phat(frontier[ai], z.block(offsets[ai], 0, sa, nb),
                  q.block(nd.begin - begin, 0, nd.size(), nb), alpha);
  }
}

HybridSolver::HybridSolver(const HMatrix& h, HybridOptions opts)
    : h_(&h), opts_(opts), ft_(h, opts.direct), offsets_(frontier_offsets(h)) {
  obs::ScopedTimer t_factor("factorize");
  reduced_size_ = offsets_.back();
  if (h.frontier().empty()) {
    // Degenerate single-leaf tree: the "frontier" is the root itself and
    // the solver is a plain dense factorization.
    const index_t roots[] = {h.tree().root()};
    factorize_roots_ckpt(ft_, roots, /*compute_phat=*/false);
  } else {
    // Each frontier root needs its own P^ (it is a W block).
    factorize_roots_ckpt(ft_, h.frontier(), /*compute_phat=*/true);
  }
  factor_seconds_ = t_factor.stop();
  obs::add("hybrid.reduced_size", static_cast<double>(reduced_size_));

  all_ids_.resize(static_cast<size_t>(h.n()));
  std::iota(all_ids_.begin(), all_ids_.end(), index_t{0});
}

void HybridSolver::matvec_v(std::span<const double> q,
                            std::span<double> z) const {
  frontier_matvec_v(*h_, offsets_, all_ids_, la::column_view(q),
                    la::column_view(z));
}

void HybridSolver::matvec_w(std::span<const double> z,
                            std::span<double> q) const {
  if (static_cast<index_t>(q.size()) != h_->n())
    throw std::invalid_argument("matvec_w: size mismatch");
  frontier_matvec_w(ft_, offsets_, 0, la::column_view(z), la::column_view(q));
}

void HybridSolver::reduced_apply(std::span<const double> z,
                                 std::span<double> y) const {
  std::vector<double> q(static_cast<size_t>(h_->n()));
  matvec_w(z, q);
  matvec_v(q, y);
  for (size_t i = 0; i < z.size(); ++i) y[i] += z[i];
}

void HybridSolver::solve(la::ConstMatrixView u, la::MatrixView x,
                         const CancelToken* cancel) const {
  check_solve_shapes(h_->n(), u, x, "HybridSolver::solve");
  obs::ScopedTimer t_solve("solve");
  const index_t nrhs = u.cols();
  to_tree_order(*h_, u, 0, x);
  reduced_code_ = SolveCode::Ok;
  gmres_iterations_ = 0;

  if (h_->frontier().empty()) {  // Single-leaf degenerate case.
    ft_.solve_subtree(h_->tree().root(), x, cancel);
    from_tree_order(*h_, x);
    return;
  }

  // Algorithm II.6. Step 1: W = D^-1 U, one in-place block solve per
  // frontier subtree.
  for (index_t a : h_->frontier()) {
    if (cancel) cancel->check("HybridSolver::solve");
    const tree::Node& nd = h_->tree().node(a);
    ft_.solve_subtree(a, x.block(nd.begin, 0, nd.size(), nrhs), cancel);
  }

  if (reduced_size_ > 0) {
    // Step 2: RHS = V W.
    Matrix rhs(reduced_size_, nrhs);
    frontier_matvec_v(*h_, offsets_, all_ids_, x, rhs);

    // Step 3: (I + VW) z = rhs, one GMRES per column (Krylov spaces are
    // per-RHS; everything around them is batched). The token rides into
    // the Krylov loop through GmresOptions.
    iter::GmresOptions gopts = opts_.gmres;
    if (cancel) gopts.cancel = cancel;
    Matrix z(reduced_size_, nrhs);
    for (index_t j = 0; j < nrhs; ++j) {
      last_ = iter::gmres(
          reduced_size_,
          [this](std::span<const double> zc, std::span<double> y) {
            reduced_apply(zc, y);
          },
          la::ConstMatrixView(rhs).col_span(j), gopts);
      reduced_code_ = std::max(reduced_code_, gmres_code(last_));
      gmres_iterations_ += last_.iterations;
      std::copy(last_.x.begin(), last_.x.end(), z.col(j));
    }

    // Step 4: X = W - W_mat Z, accumulating straight into x.
    frontier_matvec_w(ft_, offsets_, 0, z, x, -1.0, 1.0);
  }
  from_tree_order(*h_, x);
}

std::vector<double> HybridSolver::solve(std::span<const double> u,
                                        const CancelToken* cancel) const {
  std::vector<double> x(u.size());
  solve(la::column_view(u), la::column_view(std::span<double>(x)), cancel);
  return x;
}

Matrix HybridSolver::solve(const Matrix& u, const CancelToken* cancel) const {
  Matrix x(u.rows(), u.cols());
  solve(u, x, cancel);
  return x;
}

SolveStatus HybridSolver::solve_with_status(std::span<const double> u,
                                            std::span<double> x) const {
  const la::ConstMatrixView uv = la::column_view(u);
  const la::MatrixView xv = la::column_view(x);
  check_solve_shapes(h_->n(), uv, xv, "HybridSolver::solve_with_status");
  // A non-finite right-hand side is reported without solving.
  if (all_finite(u))
    solve(uv, xv);
  else
    obs::add("guardrail.nonfinite_rhs");
  const VerifyPolicy& vp = opts_.direct.verify;
  VerifyOps ops;
  ops.apply = certification_operator(*h_, vp.op, opts_.direct.lambda);
  ops.solve = [this](la::ConstMatrixView in, la::MatrixView y) {
    solve(in, y);
  };
  return finish_solve(ops, vp, should_verify(vp, verify_seq_++),
                      ft_.factor_status(), reduced_code_, gmres_iterations_,
                      uv, xv);
}

size_t HybridSolver::factor_bytes() const {
  if (h_->frontier().empty()) return ft_.subtree_bytes(h_->tree().root());
  size_t b = 0;
  for (index_t a : h_->frontier()) b += ft_.subtree_bytes(a);
  return b;
}

}  // namespace fdks::core
