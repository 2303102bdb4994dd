// Distributed hybrid solver (Algorithms II.6-II.8 over mpisim).
//
// Ownership: with p ranks, each rank owns the frontier subtrees inside
// its level-log2(p) node (level restriction L must be >= log2(p) so no
// frontier node spans ranks). D^-1 is per-rank local; MatVecW is local
// (W rows live with their points); MatVecV follows Algorithm II.8 —
// every rank computes K(a~, {x}_local) q_local for ALL frontier
// skeletons a~ against its own points, and an AllReduce assembles the
// full reduced vector on every rank. GMRES on (I + VW) then runs
// replicated, with the collective matvec keeping all ranks in lockstep.
#pragma once

#include "core/dist_solver.hpp"
#include "core/hybrid.hpp"
#include "mpisim/runtime.hpp"

#include <vector>

namespace fdks::core {

class DistributedHybridSolver {
 public:
  /// Collective over comm; factorizes the local frontier subtrees.
  /// Requires p a power of two, a complete tree level log2(p), and
  /// every frontier node at level >= log2(p).
  DistributedHybridSolver(const HMatrix& h, HybridOptions opts,
                          mpisim::Comm comm);

  /// Collective solve of (lambda I + K~) X = U for the B columns of U
  /// (identical on all ranks, original order); writes the full solution
  /// on every rank. Local D^-1 runs as in-place block subtree solves, V
  /// as fused block kernel sweeps with one allreduce per [S x B] panel,
  /// W as batched P^ GEMMs; the replicated reduced-system GMRES (step 3)
  /// runs per column, and last_gmres() reflects the final one. U and X
  /// must both be N x B (std::invalid_argument otherwise, before any
  /// data is touched). When HybridOptions::direct.verify is enabled, the
  /// certification ladder (core/verify.hpp) runs collectively afterwards:
  /// U and X are replicated, so every rank reaches the identical
  /// per-column decision and each correction pass stays a collective
  /// Algorithm II.6 solve. last_status() reports the outcome.
  void solve(la::ConstMatrixView u, la::MatrixView x);

  // B = 1 and owning views of the block solve.
  std::vector<double> solve(std::span<const double> u);
  Matrix solve(const Matrix& u);

  index_t reduced_size() const { return reduced_size_; }
  const iter::GmresResult& last_gmres() const { return last_; }
  double factor_seconds() const { return factor_seconds_; }

  /// Globally-agreed factorization outcome (see DistributedSolver).
  const FactorStatus& factor_status() const { return factor_status_; }

  /// Outcome of the most recent solve(), identical on every rank: the
  /// replicated GMRES gives every rank the same convergence flags, and
  /// the solution/residual come from collectively assembled data.
  const SolveStatus& last_status() const { return last_status_; }

 private:
  /// One Algorithm II.6-II.8 pass (local D^-1 + replicated reduced
  /// GMRES + correction), without status/verification bookkeeping.
  /// Updates last_, reduced_code_ and gmres_iterations_.
  void solve_impl(la::ConstMatrixView u, la::MatrixView x);

  /// Z = V Q with Q the rank-local rows (permuted order); collective.
  void matvec_v_local(la::ConstMatrixView q_local, la::MatrixView z) const;

  const HMatrix* h_;
  HybridOptions opts_;
  FactorTree ft_;
  mpisim::Comm comm_;
  index_t local_root_ = -1;
  index_t local_begin_ = 0, local_end_ = 0;
  std::vector<index_t> offsets_;    ///< frontier_offsets(h).
  std::vector<index_t> local_pts_;  ///< local_begin_..local_end_-1.
  index_t reduced_size_ = 0;
  double factor_seconds_ = 0.0;
  iter::GmresResult last_;
  SolveCode reduced_code_ = SolveCode::Ok;  ///< Worst column, last pass.
  int gmres_iterations_ = 0;                ///< Column sum, last pass.
  FactorStatus factor_status_;
  SolveStatus last_status_;
  std::uint64_t verify_seq_ = 0;  ///< Sampling counter (replicated).
};

}  // namespace fdks::core
