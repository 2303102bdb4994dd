#include "core/dist_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/verify.hpp"
#include "kernel/gsks.hpp"
#include "la/gemm.hpp"
#include "obs/obs.hpp"

namespace fdks::core {

namespace {

constexpr int kTagSkel = 11;
constexpr int kTagB12 = 12;
constexpr int kTagTl = 13;
constexpr int kTagZr = 14;

std::vector<double> encode_ids(std::span<const index_t> ids) {
  std::vector<double> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i)
    out[i] = static_cast<double>(ids[i]);
  return out;
}

std::vector<index_t> decode_ids(std::span<const double> data) {
  std::vector<index_t> out(data.size());
  for (size_t i = 0; i < data.size(); ++i)
    out[i] = static_cast<index_t>(std::llround(data[i]));
  return out;
}

std::vector<double> encode_matrix(const la::Matrix& m) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(m.size()) + 2);
  out.push_back(static_cast<double>(m.rows()));
  out.push_back(static_cast<double>(m.cols()));
  out.insert(out.end(), m.data(), m.data() + m.size());
  return out;
}

la::Matrix decode_matrix(std::span<const double> data) {
  const auto r = static_cast<index_t>(std::llround(data[0]));
  const auto c = static_cast<index_t>(std::llround(data[1]));
  la::Matrix m(r, c);
  std::copy(data.begin() + 2, data.end(), m.data());
  return m;
}

bool is_power_of_two(int p) { return p > 0 && (p & (p - 1)) == 0; }

}  // namespace

FactorStatus allreduce_factor_status(const FactorStatus& local,
                                     const mpisim::Comm& comm) {
  // Counters are summed; the shift magnitude is maxed (allgather of one
  // value — no allreduce_max primitive needed).
  std::vector<double> counts = {
      static_cast<double>(local.shifted_nodes),
      static_cast<double>(local.shift_retries),
      static_cast<double>(local.nonfinite_nodes),
      static_cast<double>(local.flagged_nodes)};
  comm.allreduce_sum(counts);
  const std::vector<double> shifts = comm.allgatherv(
      std::vector<double>{local.lambda_effective - local.lambda_requested});
  double max_shift = 0.0;
  for (double s : shifts) max_shift = std::max(max_shift, s);

  FactorStatus g;
  g.lambda_requested = local.lambda_requested;
  g.lambda_effective = local.lambda_requested + max_shift;
  g.shifted_nodes = static_cast<index_t>(std::llround(counts[0]));
  g.shift_retries = static_cast<index_t>(std::llround(counts[1]));
  g.nonfinite_nodes = static_cast<index_t>(std::llround(counts[2]));
  g.flagged_nodes = static_cast<index_t>(std::llround(counts[3]));
  if (g.nonfinite_nodes > 0) {
    g.code = FactorCode::NonFinite;
  } else if (g.flagged_nodes > g.shifted_nodes) {
    g.code = FactorCode::NearSingular;
  } else if (g.shifted_nodes > 0) {
    g.code = FactorCode::ShiftedDiagonal;
  }
  return g;
}

DistributedSolver::DistributedSolver(const HMatrix& h, SolverOptions opts,
                                     mpisim::Comm comm)
    : h_(&h), ft_(h, opts), comm_(std::move(comm)) {
  const int p = comm_.size();
  if (!is_power_of_two(p))
    throw std::invalid_argument("DistributedSolver: p must be a power of 2");
  logp_ = 0;
  while ((1 << logp_) < p) ++logp_;

  // Walk from the root to my level-log2(p) node, splitting the
  // communicator at every distributed level (Figure 1's nested local
  // communicators).
  const auto& t = h.tree();
  if (static_cast<int>(t.levels().size()) <= logp_ ||
      static_cast<int>(t.levels()[static_cast<size_t>(logp_)].size()) != p)
    throw std::invalid_argument(
        "DistributedSolver: tree has no complete level log2(p); "
        "decrease p or leaf_size");

  index_t node = t.root();
  mpisim::Comm cur = comm_;
  for (int level = 0; level < logp_; ++level) {
    const int q = cur.size();
    const bool is_left = cur.rank() < q / 2;
    mpisim::Comm half = cur.split(is_left ? 0 : 1);
    DistLevel dl{node, cur, half, is_left, {}, {}, 0, 0, {}, {}};
    dist_.push_back(std::move(dl));
    node = is_left ? t.node(node).left : t.node(node).right;
    cur = dist_.back().half_comm;
  }
  local_root_ = node;
  local_begin_ = t.node(node).begin;
  local_end_ = t.node(node).end;

  factorize();
}

void DistributedSolver::factorize() {
  obs::ScopedTimer t_dist("dist.factorize");
  const auto t0 = std::chrono::steady_clock::now();
  const auto& t = h_->tree();

  // Local phase: own subtree, sequential Algorithm II.2, including the
  // local root's P^ (it feeds the first distributed level). With a
  // checkpoint directory configured, each rank persists its local
  // subtree (atomic, checksummed) and a supervised re-execution resumes
  // here instead of re-factorizing — the restart path of
  // core/recovery.hpp. The distributed phase below is communication-
  // bound and cheap relative to the local factorization, so it simply
  // re-runs.
  obs::ScopedTimer t_local("local_factor");
  const index_t local_roots[] = {local_root_};
  ckpt::load_or_factorize(
      ft_, local_roots,
      "factors_dist_p" + std::to_string(comm_.size()) + "_r" +
          std::to_string(comm_.rank()) + ".ckpt",
      "dist p=" + std::to_string(comm_.size()) +
          " rank=" + std::to_string(comm_.rank()) +
          " root=" + std::to_string(local_root_),
      [&] { ft_.factorize_subtree(local_root_, /*compute_phat=*/logp_ > 0); });
  Matrix phat_local =
      logp_ > 0 ? ft_.dense_phat(local_root_) : Matrix();
  t_local.stop();

  // Distributed phase, bottom-up over the recorded ancestors.
  for (int li = logp_ - 1; li >= 0; --li) {
    obs::ScopedTimer t_level("dist.level");
    DistLevel& dl = dist_[static_cast<size_t>(li)];
    const tree::Node& nd = t.node(dl.node);
    const int q = dl.comm.size();
    const bool root_of_half = dl.half_comm.rank() == 0;

    // My child's (effective) skeleton; exchange with the sibling group
    // root, then broadcast inside each half (Algorithm II.4's
    // Send/Recv/Bcast of l~ and r~).
    const index_t my_child = dl.is_left ? nd.left : nd.right;
    dl.own_skel = h_->effective_skeleton(my_child);
    std::vector<double> sib_raw;
    if (root_of_half) {
      const int partner = dl.is_left ? q / 2 : 0;
      sib_raw = dl.comm.sendrecv(partner, kTagSkel, encode_ids(dl.own_skel));
    }
    dl.half_comm.bcast(sib_raw, 0);
    dl.sib_skel = decode_ids(sib_raw);
    dl.s_l = static_cast<index_t>(dl.is_left ? dl.own_skel.size()
                                             : dl.sib_skel.size());
    dl.s_r = static_cast<index_t>(dl.is_left ? dl.sib_skel.size()
                                             : dl.own_skel.size());

    // W rows this rank owns at this node: local rows of P^_child.
    dl.phat_child_local = phat_local;

    // Contribution to the off-diagonal Z block:
    // G_i = K(sibling~, {x}_i) P^_{x_i, child~}  (s_sib x s_child).
    std::vector<index_t> local_pts(
        static_cast<size_t>(local_end_ - local_begin_));
    std::iota(local_pts.begin(), local_pts.end(), local_begin_);
    // Multi-RHS product: honor the configured summation scheme (GSKS
    // re-evaluates the kernel per column, so the stored/GEMM path is the
    // right default for Z assembly, as in the sequential factorization).
    kernel::KernelBlockOp vblock(&h_->km(), dl.sib_skel, local_pts,
                                 ft_.options().scheme);
    Matrix g = vblock.apply_block(phat_local);

    // Reduce within my half to the half root (deterministic rank order).
    // Only the payload is summed; the dimensions are known on both ends.
    std::vector<double> gflat(g.data(), g.data() + g.size());
    dl.half_comm.reduce_sum(gflat, 0);

    // Left half root now holds B21 = K(r~, X_l) P^_l; right half root
    // holds B12 = K(l~, X_r) P^_r and ships it to comm rank 0.
    Matrix tsolve;  // Z^-1 P' broadcast to everyone.
    if (dl.comm.rank() == 0) {
      Matrix b21(dl.s_r, dl.s_l);  // = K(r~, X_l) P^_l.
      std::copy(gflat.begin(), gflat.end(), b21.data());
      Matrix b12 = decode_matrix(dl.comm.recv(q / 2, kTagB12));  // s_l x s_r.
      Matrix z(dl.s_l + dl.s_r, dl.s_l + dl.s_r);
      for (index_t i = 0; i < z.rows(); ++i) z(i, i) = 1.0;
      z.set_block(0, dl.s_l, b12);
      z.set_block(dl.s_l, 0, b21);
      dl.z_lu = la::lu_factor(z);

      if (li > 0) {  // The root itself never feeds a parent coupling.
        const askit::NodeSkeleton& sk = h_->skeleton(dl.node);
        // P'_node: skeleton projection when compressed, identity above
        // an adaptive frontier (expanded factorization).
        Matrix pprime = sk.skeletonized
                            ? sk.proj.transposed()
                            : Matrix::identity(dl.s_l + dl.s_r);
        la::lu_solve(dl.z_lu, pprime);
        tsolve = std::move(pprime);
      }
    } else if (root_of_half && !dl.is_left) {
      Matrix b12(dl.s_l, dl.s_r);  // = K(l~, X_r) P^_r, reduced here.
      std::copy(gflat.begin(), gflat.end(), b12.data());
      dl.comm.send(0, kTagB12, encode_matrix(b12));
    }

    // Telescope P^ for the next level up (skip at the root, which has
    // no parent coupling): every rank updates its local rows with the
    // broadcast T = Z^-1 P'.
    if (li > 0) {
      std::vector<double> traw =
          dl.comm.rank() == 0 ? encode_matrix(tsolve) : std::vector<double>{};
      dl.comm.bcast(traw, 0);
      Matrix tmat = decode_matrix(traw);  // (s_l+s_r) x s_node.
      const index_t off = dl.is_left ? 0 : dl.s_l;
      const index_t rows = dl.is_left ? dl.s_l : dl.s_r;
      Matrix tmine = tmat.block(off, 0, rows, tmat.cols());
      phat_local = la::matmul(dl.phat_child_local, tmine);
    }
  }

  factor_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Agree on the guardrail outcome while we are still collectively in
  // the factorization (a rank whose leaves needed a diagonal shift must
  // be visible to every rank's factor_status()).
  factor_status_ = allreduce_factor_status(ft_.factor_status(), comm_);
}

void allgather_solution(const HMatrix& h, const mpisim::Comm& comm,
                        const Matrix& w, la::MatrixView x) {
  // Ranks own contiguous point ranges, ordered by range: reassemble the
  // rank-ordered allgather (per-rank flattened column-major blocks)
  // into tree order, then undo the permutation.
  const auto& t = h.tree();
  int logp = 0;
  while ((1 << logp) < comm.size()) ++logp;
  std::vector<index_t> owners = t.levels()[static_cast<size_t>(logp)];
  std::sort(owners.begin(), owners.end(), [&](index_t a, index_t b) {
    return t.node(a).begin < t.node(b).begin;
  });
  const std::vector<double> gathered =
      comm.allgatherv(std::vector<double>(w.data(), w.data() + w.size()));
  const double* src = gathered.data();
  for (index_t node : owners) {
    const tree::Node& nd = t.node(node);
    for (index_t j = 0; j < x.cols(); ++j, src += nd.size())
      std::copy(src, src + nd.size(), x.col(j) + nd.begin);
  }
  from_tree_order(h, x);
}

void DistributedSolver::solve_impl(la::ConstMatrixView u, la::MatrixView x) {
  obs::ScopedTimer t_dist("dist.solve");
  const index_t nrhs = u.cols();
  const index_t nloc = local_end_ - local_begin_;

  // Local slice of every column, in tree order.
  Matrix w(nloc, nrhs);
  to_tree_order(*h_, u, local_begin_, w);

  // Local block solve (Algorithm II.3 on the owned subtree, in place).
  {
    obs::ScopedTimer t_local("local_solve");
    ft_.solve_subtree(local_root_, w);
  }

  std::vector<index_t> local_pts(static_cast<size_t>(nloc));
  std::iota(local_pts.begin(), local_pts.end(), local_begin_);

  // Distributed corrections, bottom-up (Algorithm II.5), with every
  // level's messages carrying the whole [s x B] panel at once.
  for (int li = logp_ - 1; li >= 0; --li) {
    obs::ScopedTimer t_level("dist.level");
    const DistLevel& dl = dist_[static_cast<size_t>(li)];
    const int q = dl.comm.size();
    const bool root_of_half = dl.half_comm.rank() == 0;
    const index_t s_sib = static_cast<index_t>(dl.sib_skel.size());

    // T_sib = K(sibling~, {x}_i) W_i, fused over the block, reduced
    // over my half (flattened column-major: ld == rows for Matrix): the
    // left half produces T_r~ = K(r~, X_l) W_l and vice versa.
    Matrix tpart(s_sib, nrhs);
    kernel::gsks_apply_block(h_->km(), dl.sib_skel, local_pts, w, tpart, 1.0);
    std::vector<double> tflat(tpart.data(), tpart.data() + tpart.size());
    dl.half_comm.reduce_sum(tflat, 0);

    // Assemble [T_l~; T_r~] on comm rank 0, block-solve with Z, and
    // return the halves: Z_l~ broadcast in the left half, Z_r~ in the
    // right half.
    std::vector<double> zflat;
    if (dl.comm.rank() == 0) {
      const std::vector<double> t_l = dl.comm.recv(q / 2, kTagTl);
      Matrix rhs(dl.s_l + dl.s_r, nrhs);
      for (index_t j = 0; j < nrhs; ++j) {
        std::copy(t_l.begin() + j * dl.s_l, t_l.begin() + (j + 1) * dl.s_l,
                  rhs.col(j));
        std::copy(tflat.begin() + j * dl.s_r,
                  tflat.begin() + (j + 1) * dl.s_r, rhs.col(j) + dl.s_l);
      }
      la::lu_solve(dl.z_lu, rhs);
      std::vector<double> z_r(static_cast<size_t>(dl.s_r) *
                              static_cast<size_t>(nrhs));
      zflat.resize(static_cast<size_t>(dl.s_l) * static_cast<size_t>(nrhs));
      for (index_t j = 0; j < nrhs; ++j) {
        std::copy(rhs.col(j), rhs.col(j) + dl.s_l,
                  zflat.begin() + j * dl.s_l);
        std::copy(rhs.col(j) + dl.s_l, rhs.col(j) + dl.s_l + dl.s_r,
                  z_r.begin() + j * dl.s_r);
      }
      dl.comm.send(q / 2, kTagZr, z_r);
    } else if (root_of_half && !dl.is_left) {
      dl.comm.send(0, kTagTl, tflat);
      zflat = dl.comm.recv(0, kTagZr);
    }
    dl.half_comm.bcast(zflat, 0);

    // W_i -= (local rows of P^_child) Z_child~: one GEMM per level for
    // the whole batch.
    const index_t smine = static_cast<index_t>(dl.own_skel.size());
    la::gemm(-1.0, la::ConstMatrixView(dl.phat_child_local),
             la::ConstMatrixView(zflat.data(), smine, nrhs, smine), 1.0, w);
  }

  allgather_solution(*h_, comm_, w, x);
}

void DistributedSolver::solve(la::ConstMatrixView u, la::MatrixView x) {
  check_solve_shapes(h_->n(), u, x, "DistributedSolver::solve");
  solve_impl(u, x);
  // Status and the collective certification ladder: u and x are
  // replicated and factor_status_ was agreed during factorization, so
  // every rank takes the identical refine/escalate decisions and the
  // correction solves stay collective Algorithm II.5 passes. Only rank 0
  // emits the verify.*/refine.* keys (one count per event).
  const VerifyPolicy& vp = ft_.options().verify;
  VerifyOps ops;
  ops.emit_obs = comm_.rank() == 0;
  ops.apply = certification_operator(*h_, vp.op, ft_.options().lambda);
  ops.solve = [this](la::ConstMatrixView in, la::MatrixView y) {
    solve_impl(in, y);
  };
  last_status_ =
      finish_solve(ops, vp, vp.enabled() && should_verify(vp, verify_seq_++),
                   factor_status_, SolveCode::Ok, 0, u, x);
}

std::vector<double> DistributedSolver::solve(std::span<const double> u) {
  std::vector<double> x(u.size());
  solve(la::column_view(u), la::column_view(std::span<double>(x)));
  return x;
}

Matrix DistributedSolver::solve(const Matrix& u) {
  Matrix x(u.rows(), u.cols());
  solve(u, x);
  return x;
}

}  // namespace fdks::core
