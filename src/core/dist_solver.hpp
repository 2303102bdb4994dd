// Distributed-memory factorization and solve (Algorithms II.4 / II.5)
// over the mpisim message-passing runtime.
//
// Ownership follows the paper (Figure 1): with p ranks (a power of two),
// the top log2(p) tree levels are "distributed" nodes shared by ranks;
// each rank exclusively owns the subtree rooted at its level-log2(p)
// node and factorizes it locally with the sequential Algorithm II.2.
// For each distributed ancestor, ranks exchange child skeletons between
// the group roots {0} and {q/2}, reduce their local contributions
// K(sibling~, {x}_i) P^_{x_i} to assemble the reduced system Z on {0},
// LU-factorize it there, and broadcast the telescoping solve so every
// rank updates its local rows of P^ — point data {x}_i never leaves its
// owner.
//
// Setup note (documented in DESIGN.md): the tree and skeletons are built
// deterministically and replicated on every rank; the *factorization*
// and *solve* state is fully distributed and all cross-rank data flow
// goes through mpisim messages, which is the part Algorithms II.4/II.5
// specify.
#pragma once

#include "core/factor_tree.hpp"
#include "mpisim/runtime.hpp"

#include <vector>

namespace fdks::core {

class DistributedSolver {
 public:
  /// Construct inside a rank; collective over comm (factorizes).
  /// comm.size() must be a power of two and the tree must have a
  /// complete level log2(p).
  DistributedSolver(const HMatrix& h, SolverOptions opts, mpisim::Comm comm);

  /// Collective solve of (lambda I + K~) X = U for the B columns of U
  /// (original point order, identical on all ranks); writes the full
  /// solution on every rank. One batched pass of Algorithm II.5: local
  /// block subtree solves, per-level corrections as fused block kernel
  /// sweeps and batched P^ GEMMs, and level messages carrying [s x B]
  /// panels — a B = 1 solve sends exactly the messages of one vector
  /// solve. U and X must both be N x B (std::invalid_argument otherwise,
  /// before any data is touched). When SolverOptions::verify is enabled,
  /// the certification ladder (core/verify.hpp) runs collectively
  /// afterwards: U and X are replicated, so every rank reaches the
  /// identical per-column decision and the correction solves remain
  /// collective Algorithm II.5 passes. last_status() reports the outcome.
  void solve(la::ConstMatrixView u, la::MatrixView x);

  // B = 1 and owning views of the block solve.
  std::vector<double> solve(std::span<const double> u);
  Matrix solve(const Matrix& u);

  index_t local_root() const { return local_root_; }
  double factor_seconds() const { return factor_seconds_; }
  const StabilityReport& local_stability() const { return ft_.stability(); }

  /// Globally-agreed factorization outcome: every rank's local guardrail
  /// counters (shift retries, NaN detections) are combined during the
  /// collective factorization, so all ranks return the same status.
  const FactorStatus& factor_status() const { return factor_status_; }

  /// Outcome of the most recent solve() (identical on every rank: the
  /// degradation summary is exchanged collectively and the residual is
  /// computed from replicated data).
  const SolveStatus& last_status() const { return last_status_; }

 private:
  struct DistLevel {
    index_t node = -1;            ///< Distributed ancestor node id.
    mpisim::Comm comm;            ///< Communicator spanning the node.
    mpisim::Comm half_comm;       ///< My child's half of comm.
    bool is_left = false;         ///< Which child my rank belongs to.
    std::vector<index_t> own_skel;  ///< My child's effective skeleton.
    std::vector<index_t> sib_skel;  ///< Sibling skeleton (via messages).
    index_t s_l = 0, s_r = 0;     ///< Child skeleton sizes.
    la::LuFactor z_lu;            ///< Reduced system; rank 0 of comm only.
    Matrix phat_child_local;      ///< Local rows of P^_child (the W rows
                                  ///< this rank owns at this node).
  };

  void factorize();
  /// One Algorithm II.5 pass (local subtree solve + per-level
  /// corrections + allgather), without status/verification bookkeeping.
  void solve_impl(la::ConstMatrixView u, la::MatrixView x);

  const HMatrix* h_;
  FactorTree ft_;
  mpisim::Comm comm_;
  int logp_ = 0;
  index_t local_root_ = -1;
  index_t local_begin_ = 0, local_end_ = 0;
  /// Distributed ancestors from the root (index 0, level 0) downward.
  std::vector<DistLevel> dist_;
  double factor_seconds_ = 0.0;
  FactorStatus factor_status_;
  SolveStatus last_status_;
  std::uint64_t verify_seq_ = 0;  ///< Sampling counter (replicated).
};

/// Combine per-rank FactorStatus snapshots into one global status every
/// rank agrees on (sums the node counters, maxes the shift). Collective
/// over comm; shared by DistributedSolver and DistributedHybridSolver.
FactorStatus allreduce_factor_status(const FactorStatus& local,
                                     const mpisim::Comm& comm);

/// Allgather every rank's tree-order local rows W (its level-log2(p)
/// node's points) into X, the full N x B solution in original point
/// order. Collective over comm; shared by both distributed solvers.
void allgather_solution(const HMatrix& h, const mpisim::Comm& comm,
                        const Matrix& w, la::MatrixView x);

}  // namespace fdks::core
