#include "core/dist_hybrid.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/verify.hpp"
#include "obs/obs.hpp"

namespace fdks::core {

DistributedHybridSolver::DistributedHybridSolver(const HMatrix& h,
                                                 HybridOptions opts,
                                                 mpisim::Comm comm)
    : h_(&h), opts_(opts), ft_(h, opts.direct), comm_(std::move(comm)) {
  const int p = comm_.size();
  if (p <= 0 || (p & (p - 1)) != 0)
    throw std::invalid_argument(
        "DistributedHybridSolver: p must be a power of 2");
  int logp = 0;
  while ((1 << logp) < p) ++logp;

  const auto& t = h.tree();
  if (static_cast<int>(t.levels().size()) <= logp ||
      static_cast<int>(t.levels()[static_cast<size_t>(logp)].size()) != p)
    throw std::invalid_argument(
        "DistributedHybridSolver: tree has no complete level log2(p)");

  // My level-log2(p) node: the p nodes of that level ordered by range.
  std::vector<index_t> owners = t.levels()[static_cast<size_t>(logp)];
  std::sort(owners.begin(), owners.end(), [&](index_t a, index_t b) {
    return t.node(a).begin < t.node(b).begin;
  });
  local_root_ = owners[static_cast<size_t>(comm_.rank())];
  local_begin_ = t.node(local_root_).begin;
  local_end_ = t.node(local_root_).end;

  local_pts_.resize(static_cast<size_t>(local_end_ - local_begin_));
  std::iota(local_pts_.begin(), local_pts_.end(), local_begin_);
  offsets_ = frontier_offsets(h);
  reduced_size_ = offsets_.back();
  std::vector<index_t> local_roots;
  for (index_t a : h.frontier()) {
    const tree::Node& nd = t.node(a);
    if (nd.level < logp)
      throw std::invalid_argument(
          "DistributedHybridSolver: frontier node spans ranks; use level "
          "restriction L >= log2(p)");
    if (nd.begin >= local_begin_ && nd.end <= local_end_)
      local_roots.push_back(a);
  }

  obs::ScopedTimer t_factor("dist.factorize");
  const auto t0 = std::chrono::steady_clock::now();
  // Checkpoint/restart (core/recovery.hpp): each rank persists the
  // factors of all its frontier subtrees in one file; a supervised
  // re-execution resumes from it instead of re-factorizing.
  ckpt::load_or_factorize(
      ft_, local_roots,
      "factors_hybrid_p" + std::to_string(p) + "_r" +
          std::to_string(comm_.rank()) + ".ckpt",
      "dist-hybrid p=" + std::to_string(p) +
          " rank=" + std::to_string(comm_.rank()),
      [&] {
        for (index_t a : local_roots)
          ft_.factorize_subtree(a, /*compute_phat=*/true);
      });
  factor_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  factor_status_ = allreduce_factor_status(ft_.factor_status(), comm_);
}

void DistributedHybridSolver::matvec_v_local(la::ConstMatrixView q_local,
                                             la::MatrixView z) const {
  // Algorithm II.8: contributions K(a~, {x}_i) Q_i for EVERY frontier
  // skeleton against the local points, own-diagonal-block subtracted by
  // the owner, then one allreduce per [S x B] panel so all ranks hold
  // the full V Q.
  Matrix partial(reduced_size_, q_local.cols());
  frontier_matvec_v(*h_, offsets_, local_pts_, q_local, partial);
  std::vector<double> pflat(partial.data(), partial.data() + partial.size());
  comm_.allreduce_sum(pflat);
  for (index_t j = 0; j < z.cols(); ++j)
    std::copy(pflat.begin() + j * reduced_size_,
              pflat.begin() + (j + 1) * reduced_size_, z.col(j));
}

void DistributedHybridSolver::solve_impl(la::ConstMatrixView u,
                                         la::MatrixView x) {
  obs::ScopedTimer t_solve("dist.solve");
  const index_t nrhs = u.cols();
  const index_t nloc = local_end_ - local_begin_;
  Matrix w(nloc, nrhs);
  to_tree_order(*h_, u, local_begin_, w);
  reduced_code_ = SolveCode::Ok;
  gmres_iterations_ = 0;

  // Step 1: W = D^-1 U on the locally owned frontier subtrees, in place.
  const la::MatrixView wv(w);
  for (index_t a : h_->frontier()) {
    const tree::Node& nd = h_->tree().node(a);
    if (nd.begin < local_begin_ || nd.end > local_end_) continue;
    ft_.solve_subtree(a, wv.block(nd.begin - local_begin_, 0, nd.size(), nrhs));
  }

  if (reduced_size_ > 0) {
    // Step 2: RHS = V W (collective). Step 3: replicated per-column
    // GMRES on (I + VW); the collective matvec keeps ranks in lockstep
    // column by column.
    Matrix rhs(reduced_size_, nrhs);
    matvec_v_local(w, rhs);
    Matrix z(reduced_size_, nrhs);
    Matrix q_local(nloc, 1);
    for (index_t j = 0; j < nrhs; ++j) {
      last_ = iter::gmres(
          reduced_size_,
          [&](std::span<const double> zc, std::span<double> y) {
            frontier_matvec_w(ft_, offsets_, local_begin_, la::column_view(zc),
                              q_local);
            matvec_v_local(q_local, la::column_view(y));
            for (size_t i = 0; i < zc.size(); ++i) y[i] += zc[i];
          },
          la::ConstMatrixView(rhs).col_span(j), opts_.gmres);
      reduced_code_ = std::max(reduced_code_, gmres_code(last_));
      gmres_iterations_ += last_.iterations;
      std::copy(last_.x.begin(), last_.x.end(), z.col(j));
    }

    // Step 4: X = W - W_mat Z, locally.
    frontier_matvec_w(ft_, offsets_, local_begin_, z, w, -1.0, 1.0);
  }

  allgather_solution(*h_, comm_, w, x);
}

void DistributedHybridSolver::solve(la::ConstMatrixView u, la::MatrixView x) {
  check_solve_shapes(h_->n(), u, x, "DistributedHybridSolver::solve");
  solve_impl(u, x);
  // Status and the collective certification ladder (u and x are
  // replicated, so every rank takes the identical branch and each
  // correction pass through solve_impl stays collective).
  const VerifyPolicy& vp = opts_.direct.verify;
  VerifyOps ops;
  ops.emit_obs = comm_.rank() == 0;
  ops.apply = certification_operator(*h_, vp.op, opts_.direct.lambda);
  ops.solve = [this](la::ConstMatrixView in, la::MatrixView y) {
    solve_impl(in, y);
  };
  last_status_ =
      finish_solve(ops, vp, vp.enabled() && should_verify(vp, verify_seq_++),
                   factor_status_, reduced_code_, gmres_iterations_, u, x);
}

std::vector<double> DistributedHybridSolver::solve(
    std::span<const double> u) {
  std::vector<double> x(u.size());
  solve(la::column_view(u), la::column_view(std::span<double>(x)));
  return x;
}

Matrix DistributedHybridSolver::solve(const Matrix& u) {
  Matrix x(u.rows(), u.cols());
  solve(u, x);
  return x;
}

}  // namespace fdks::core
