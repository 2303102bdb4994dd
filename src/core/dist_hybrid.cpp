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
#include "kernel/gsks.hpp"
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

  frontier_ = h.frontier();
  offsets_.reserve(frontier_.size() + 1);
  offsets_.push_back(0);
  for (size_t ai = 0; ai < frontier_.size(); ++ai) {
    const index_t a = frontier_[ai];
    const tree::Node& nd = t.node(a);
    if (nd.level < logp)
      throw std::invalid_argument(
          "DistributedHybridSolver: frontier node spans ranks; use level "
          "restriction L >= log2(p)");
    offsets_.push_back(offsets_.back() +
                       static_cast<index_t>(h.skeleton(a).skel.size()));
    if (nd.begin >= local_begin_ && nd.end <= local_end_)
      local_frontier_.push_back(ai);
  }
  reduced_size_ = offsets_.back();

  obs::ScopedTimer t_factor("dist.factorize");
  const auto t0 = std::chrono::steady_clock::now();
  // Checkpoint/restart (core/recovery.hpp): each rank persists the
  // factors of all its frontier subtrees in one file; a supervised
  // re-execution resumes from it instead of re-factorizing.
  const SolverOptions& dopts = ft_.options();
  std::vector<index_t> local_roots;
  local_roots.reserve(local_frontier_.size());
  for (size_t ai : local_frontier_) local_roots.push_back(frontier_[ai]);
  if (!dopts.checkpoint_dir.empty()) {
    ckpt::ensure_dir(dopts.checkpoint_dir);
    const std::string scope = "dist-hybrid p=" + std::to_string(p) +
                              " rank=" + std::to_string(comm_.rank());
    const std::string path =
        ckpt::join(dopts.checkpoint_dir,
                   "factors_hybrid_p" + std::to_string(p) + "_r" +
                       std::to_string(comm_.rank()) + ".ckpt");
    std::string diag;
    if (!ckpt::try_load_factor_tree(path, ft_, local_roots, scope, &diag)) {
      for (index_t a : local_roots)
        ft_.factorize_subtree(a, /*compute_phat=*/true);
      ckpt::save_factor_tree(path, ft_, local_roots, scope);
    }
  } else {
    for (index_t a : local_roots)
      ft_.factorize_subtree(a, /*compute_phat=*/true);
  }
  factor_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  factor_status_ = allreduce_factor_status(ft_.factor_status(), comm_);
}

void DistributedHybridSolver::matvec_v_local(std::span<const double> q_local,
                                             std::span<double> z) const {
  // Algorithm II.8: contributions K(a~, {x}_i) q_i for EVERY frontier
  // skeleton against the local points, own-diagonal-block subtracted by
  // the owner, then AllReduce so all ranks hold the full V q.
  std::vector<double> partial(static_cast<size_t>(reduced_size_), 0.0);
  std::vector<index_t> local_pts(static_cast<size_t>(local_end_ -
                                                     local_begin_));
  std::iota(local_pts.begin(), local_pts.end(), local_begin_);

  for (size_t ai = 0; ai < frontier_.size(); ++ai) {
    const auto& skel = h_->skeleton(frontier_[ai]).skel;
    auto za = std::span<double>(partial.data() + offsets_[ai], skel.size());
    kernel::gsks_apply(h_->km(), skel, local_pts, q_local, za, 1.0);
  }
  for (size_t ai : local_frontier_) {
    const tree::Node& nd = h_->tree().node(frontier_[ai]);
    const auto& skel = h_->skeleton(frontier_[ai]).skel;
    std::vector<index_t> own(static_cast<size_t>(nd.size()));
    std::iota(own.begin(), own.end(), nd.begin);
    auto za = std::span<double>(partial.data() + offsets_[ai], skel.size());
    kernel::gsks_apply(h_->km(), skel, own,
                       q_local.subspan(static_cast<size_t>(nd.begin -
                                                           local_begin_),
                                       static_cast<size_t>(nd.size())),
                       za, -1.0);
  }
  comm_.allreduce_sum(partial);
  std::copy(partial.begin(), partial.end(), z.begin());
}

void DistributedHybridSolver::matvec_w_local(std::span<const double> z,
                                             std::span<double> q_local)
    const {
  std::fill(q_local.begin(), q_local.end(), 0.0);
  for (size_t ai : local_frontier_) {
    const tree::Node& nd = h_->tree().node(frontier_[ai]);
    const auto& skel = h_->skeleton(frontier_[ai]).skel;
    ft_.apply_phat(frontier_[ai],
                   z.subspan(static_cast<size_t>(offsets_[ai]), skel.size()),
                   q_local.subspan(static_cast<size_t>(nd.begin -
                                                       local_begin_),
                                   static_cast<size_t>(nd.size())));
  }
}

std::vector<double> DistributedHybridSolver::solve_impl(
    std::span<const double> u) {
  obs::ScopedTimer t_solve("dist.solve");
  const std::vector<double> ut = h_->to_tree_order(u);
  std::vector<double> w(ut.begin() + local_begin_, ut.begin() + local_end_);

  // Step 1: w = D^-1 u on the locally owned frontier subtrees.
  for (size_t ai : local_frontier_) {
    const tree::Node& nd = h_->tree().node(frontier_[ai]);
    ft_.solve_subtree(frontier_[ai],
                      std::span<double>(w.data() + (nd.begin - local_begin_),
                                        static_cast<size_t>(nd.size())));
  }

  if (reduced_size_ > 0) {
    // Step 2: rhs = V w (collective). Step 3: replicated GMRES on the
    // reduced system; the matvec's AllReduce keeps ranks in lockstep.
    std::vector<double> rhs(static_cast<size_t>(reduced_size_), 0.0);
    matvec_v_local(w, rhs);
    std::vector<double> q_local(w.size(), 0.0);
    last_ = iter::gmres(
        reduced_size_,
        [&](std::span<const double> z, std::span<double> y) {
          matvec_w_local(z, q_local);
          matvec_v_local(q_local, y);
          for (size_t i = 0; i < z.size(); ++i) y[i] += z[i];
        },
        rhs, opts_.gmres);

    // Step 4: x = w - W z, locally.
    matvec_w_local(last_.x, q_local);
    for (size_t i = 0; i < w.size(); ++i) w[i] -= q_local[i];
  }

  const std::vector<double> full_tree = comm_.allgatherv(w);
  return h_->from_tree_order(full_tree);
}

std::vector<double> DistributedHybridSolver::solve(
    std::span<const double> u) {
  if (static_cast<index_t>(u.size()) != h_->n())
    throw std::invalid_argument("DistributedHybridSolver: size mismatch");
  std::vector<double> x = solve_impl(u);

  // Guardrail summary (no extra collectives: u and the reduced GMRES
  // are replicated, the solution was just allgathered — every rank
  // derives the identical status).
  SolveStatus st;
  st.lambda_effective = factor_status_.lambda_effective;
  st.shifted_nodes = factor_status_.shifted_nodes;
  st.gmres_iterations = last_.iterations;
  if (!all_finite(u)) {
    st.code = SolveCode::NonFinite;
    st.detail = "right-hand side contains NaN/Inf";
  } else if (!all_finite(std::span<const double>(x.data(), x.size()))) {
    st.code = SolveCode::NonFinite;
    st.detail = "solution contains NaN/Inf";
  } else {
    st.residual = h_->relative_residual(x, u, opts_.direct.lambda);
    if (reduced_size_ > 0 && !last_.converged) {
      if (last_.breakdown) {
        st.code = SolveCode::Breakdown;
      } else if (last_.stagnated) {
        st.code = SolveCode::Stagnated;
      } else if (last_.nonfinite) {
        st.code = SolveCode::NonFinite;
      } else {
        st.code = SolveCode::NotConverged;
      }
      st.detail = "reduced-system GMRES did not converge";
    } else if (factor_status_.code == FactorCode::ShiftedDiagonal) {
      st.code = SolveCode::ShiftedDiagonal;
    }
  }

  // Certification / escalation ladder (collective: u and x are
  // replicated, so every rank takes the identical branch and each
  // correction pass through solve_impl stays collective).
  const VerifyPolicy& vp = opts_.direct.verify;
  const bool insample = vp.enabled() && should_verify(vp, verify_seq_++);
  if (insample && st.code != SolveCode::NonFinite) {
    VerifyOps ops;
    ops.emit_obs = comm_.rank() == 0;
    ops.apply = certification_operator(*h_, vp.op, opts_.direct.lambda);
    ops.solve = [this](std::span<const double> in, std::span<double> y) {
      const std::vector<double> s = solve_impl(in);
      std::copy(s.begin(), s.end(), y.begin());
    };
    const VerifyOutcome vo = certify_and_refine_ops(ops, u, x, vp);
    st.residual = vo.residual;
    st.escalations += vo.escalations;
    if (!vo.certified) {
      st.code = SolveCode::NotConverged;
      st.detail =
          "certified residual misses the verify target after the "
          "escalation ladder";
    } else if (vo.escalations > 0) {
      st.code = SolveCode::Escalated;
    }
  }
  last_status_ = st;
  return x;
}

Matrix DistributedHybridSolver::solve_impl(const Matrix& u) {
  obs::ScopedTimer t_solve("dist.solve");
  const index_t n = h_->n();
  const index_t nrhs = u.cols();
  const index_t nloc = local_end_ - local_begin_;

  Matrix w(nloc, nrhs);
  for (index_t j = 0; j < nrhs; ++j) {
    const std::vector<double> ut = h_->to_tree_order(
        std::span<const double>(u.col(j), static_cast<size_t>(n)));
    std::copy(ut.begin() + local_begin_, ut.begin() + local_end_, w.col(j));
  }
  la::MatrixView wv(w);

  // Step 1: W = D^-1 U on the locally owned frontier subtrees, in place.
  for (size_t ai : local_frontier_) {
    const tree::Node& nd = h_->tree().node(frontier_[ai]);
    ft_.solve_subtree(frontier_[ai],
                      wv.block(nd.begin - local_begin_, 0, nd.size(), nrhs));
  }

  block_gmres_iters_ = 0;
  if (reduced_size_ > 0) {
    // Step 2: RHS = V W (Algorithm II.8, batched): every rank computes
    // its fused block contribution for ALL frontier skeletons, one
    // allreduce assembles the full [S x B] panel everywhere.
    std::vector<index_t> local_pts(static_cast<size_t>(nloc));
    std::iota(local_pts.begin(), local_pts.end(), local_begin_);
    Matrix partial(reduced_size_, nrhs);
    la::MatrixView pv(partial);
    for (size_t ai = 0; ai < frontier_.size(); ++ai) {
      const auto& skel = h_->skeleton(frontier_[ai]).skel;
      kernel::gsks_apply_block(
          h_->km(), skel, local_pts, la::ConstMatrixView(wv),
          pv.block(offsets_[ai], 0, static_cast<index_t>(skel.size()),
                   nrhs),
          1.0);
    }
    for (size_t ai : local_frontier_) {
      const tree::Node& nd = h_->tree().node(frontier_[ai]);
      const auto& skel = h_->skeleton(frontier_[ai]).skel;
      std::vector<index_t> own(static_cast<size_t>(nd.size()));
      std::iota(own.begin(), own.end(), nd.begin);
      kernel::gsks_apply_block(
          h_->km(), skel, own,
          la::ConstMatrixView(
              wv.block(nd.begin - local_begin_, 0, nd.size(), nrhs)),
          pv.block(offsets_[ai], 0, static_cast<index_t>(skel.size()),
                   nrhs),
          -1.0);
    }
    std::vector<double> pflat(partial.data(),
                              partial.data() + partial.size());
    comm_.allreduce_sum(pflat);
    std::copy(pflat.begin(), pflat.end(), partial.data());

    // Step 3: replicated per-column GMRES on (I + VW); the collective
    // matvec keeps ranks in lockstep column by column.
    Matrix z(reduced_size_, nrhs);
    std::vector<double> q_local(static_cast<size_t>(nloc), 0.0);
    for (index_t j = 0; j < nrhs; ++j) {
      last_ = iter::gmres(
          reduced_size_,
          [&](std::span<const double> zc, std::span<double> y) {
            matvec_w_local(zc, q_local);
            matvec_v_local(q_local, y);
            for (size_t i = 0; i < zc.size(); ++i) y[i] += zc[i];
          },
          std::span<const double>(partial.col(j),
                                  static_cast<size_t>(reduced_size_)),
          opts_.gmres);
      block_gmres_iters_ += last_.iterations;
      std::copy(last_.x.begin(), last_.x.end(), z.col(j));
    }

    // Step 4: X = W - W_mat Z, batched P^ applications.
    const la::ConstMatrixView zv(z);
    for (size_t ai : local_frontier_) {
      const tree::Node& nd = h_->tree().node(frontier_[ai]);
      const index_t sa =
          static_cast<index_t>(h_->skeleton(frontier_[ai]).skel.size());
      ft_.apply_phat(frontier_[ai], zv.block(offsets_[ai], 0, sa, nrhs),
                     wv.block(nd.begin - local_begin_, 0, nd.size(), nrhs),
                     -1.0);
    }
  }

  const std::vector<double> wflat(w.data(), w.data() + w.size());
  const std::vector<double> gathered = comm_.allgatherv(wflat);
  Matrix x = gather_tree_order_block(*h_, comm_.size(), gathered, nrhs);
  for (index_t j = 0; j < nrhs; ++j) {
    const std::vector<double> xo = h_->from_tree_order(
        std::span<const double>(x.col(j), static_cast<size_t>(n)));
    std::copy(xo.begin(), xo.end(), x.col(j));
  }
  return x;
}

Matrix DistributedHybridSolver::solve(const Matrix& u) {
  const index_t n = h_->n();
  if (u.rows() != n)
    throw std::invalid_argument(
        "DistributedHybridSolver: block shape mismatch");
  const index_t nrhs = u.cols();
  Matrix x = solve_impl(u);

  // Guardrail summary over the batch: worst column wins (replicated
  // data, so every rank derives the identical status).
  SolveStatus st;
  st.lambda_effective = factor_status_.lambda_effective;
  st.shifted_nodes = factor_status_.shifted_nodes;
  st.gmres_iterations = static_cast<int>(block_gmres_iters_);
  st.residual = 0.0;
  for (index_t j = 0; j < nrhs && st.code == SolveCode::Ok; ++j) {
    const std::span<const double> uc(u.col(j), static_cast<size_t>(n));
    const std::span<const double> xc(x.col(j), static_cast<size_t>(n));
    if (!all_finite(uc)) {
      st.code = SolveCode::NonFinite;
      st.detail = "right-hand side contains NaN/Inf";
    } else if (!all_finite(xc)) {
      st.code = SolveCode::NonFinite;
      st.detail = "solution contains NaN/Inf";
    }
  }
  if (st.code == SolveCode::Ok)
    for (const double r : h_->relative_residual(x, u, opts_.direct.lambda))
      st.residual = std::max(st.residual, r);
  if (st.code == SolveCode::Ok) {
    if (reduced_size_ > 0 && !last_.converged) {
      st.code = SolveCode::NotConverged;
      st.detail = "reduced-system GMRES did not converge";
    } else if (factor_status_.code == FactorCode::ShiftedDiagonal) {
      st.code = SolveCode::ShiftedDiagonal;
    }
  }

  // Collective block certification ladder (see the vector overload).
  const VerifyPolicy& vp = opts_.direct.verify;
  const bool insample = vp.enabled() && should_verify(vp, verify_seq_++);
  if (insample && st.code != SolveCode::NonFinite) {
    VerifyOps ops;
    ops.emit_obs = comm_.rank() == 0;
    ops.apply = certification_operator(*h_, vp.op, opts_.direct.lambda);
    ops.solve = [this](std::span<const double> in, std::span<double> y) {
      const std::vector<double> s = solve_impl(in);
      std::copy(s.begin(), s.end(), y.begin());
    };
    ops.solve_block = [this](const Matrix& rhs) { return solve_impl(rhs); };
    const std::vector<VerifyOutcome> vos =
        certify_and_refine_block_ops(ops, u, x, vp);
    double worst = 0.0;
    bool uncertified = false;
    for (const VerifyOutcome& vo : vos) {
      worst = std::max(worst, vo.residual);
      uncertified = uncertified || !vo.certified;
      st.escalations += vo.escalations;
    }
    st.residual = worst;
    if (uncertified) {
      st.code = SolveCode::NotConverged;
      st.detail =
          "certified residual misses the verify target after the "
          "escalation ladder";
    } else if (st.escalations > 0) {
      st.code = SolveCode::Escalated;
    }
  }
  last_status_ = st;
  return x;
}

}  // namespace fdks::core
