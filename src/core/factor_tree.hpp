// Shared factorization state for the fast direct solver (§II-B).
//
// FactorTree holds, per tree node, the pieces of the recursive
// Sherman-Morrison-Woodbury factorization of (lambda I + K~):
//
//   leaf a      : LU of (lambda I + K_aa), and P^_a = (lambda I+K_aa)^-1 E_a
//   internal α  : V_α = [K(l~, X_r); K(r~, X_l)] as kernel-block operators,
//                 LU of the reduced system Z_α = I + V_α W_α  (eq. 8),
//                 and the telescoped P^_α = W_α Z_α^-1 P'_α   (eq. 10),
//
// where W_α = blockdiag(P^_l, P^_r) is never materialized (the children's
// P^ factors play that role) and P'_α is the child-to-parent skeleton
// projection (identity for unskeletonized nodes above the frontier, which
// yields the expanded level-restricted direct factorization of Table V).
//
// Two algorithms produce the same factors:
//   Telescoped — Algorithm II.2, O(N log N): P^ via eq. (10).
//   Subtree    — the [36] baseline, O(N log^2 N): P^ via a recursive
//                solve of K~_αα P^ = E_α over the whole subtree.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "askit/hmatrix.hpp"
#include "core/cancel.hpp"
#include "core/status.hpp"
#include "kernel/summation.hpp"
#include "la/chol.hpp"
#include "la/lu.hpp"

namespace fdks::core {

using askit::HMatrix;
using la::Matrix;
using la::index_t;

enum class FactorizationAlgo {
  Telescoped,  ///< This paper: O(N log N), eq. (10).
  Subtree,     ///< INV-ASKIT [36]: O(N log^2 N), recursive subtree solves.
};

struct SolverOptions {
  double lambda = 0.0;
  FactorizationAlgo algo = FactorizationAlgo::Telescoped;
  kernel::Scheme scheme = kernel::Scheme::StoredGemv;  ///< V-block scheme.
  double rcond_threshold = 1e-12;  ///< Stability flag threshold (§III).
  /// §III storage reduction ("recomputing W with (10)"): store only the
  /// small T = Z^-1 P' per internal node (s x s) instead of the dense
  /// P^ (|alpha| x s); W actions are recomputed by telescoping through
  /// the children at solve time. Cuts the O(sN log(N/m)) P^ storage to
  /// O(sN + s^2 log(N/m)) at a modest time cost. Telescoped algo only.
  bool compact_w = false;
  /// Factorize independent subtrees as OpenMP tasks (the paper's
  /// future-work task parallelism for load balancing).
  bool parallel_tree = false;
  /// Use the paper's level-synchronous traversal (bottom-up, all nodes
  /// of a level factorized in a parallel-for) instead of recursion.
  bool levelwise = false;
  /// Factor leaf blocks with Cholesky instead of LU — valid because
  /// lambda I + K_aa is SPD for PSD kernels with lambda > 0, at half
  /// the factorization flops. Falls back to LU per leaf whenever a
  /// non-positive pivot shows the block is not numerically SPD.
  bool spd_leaves = false;
  /// Guardrail (graceful degradation): when a leaf block factors
  /// near-singular (pivot ratio below rcond_threshold, the small-lambda
  /// regime of §III), re-factorize with a bumped diagonal shift —
  /// effectively raising lambda on that node — instead of keeping
  /// garbage factors. The bump is recorded in FactorStatus and the node
  /// stays flagged in StabilityReport (the raw detector).
  bool auto_shift = true;
  /// First shift, relative to ||lambda I + K_aa||_1; grows 100x per
  /// retry up to max_shift_retries attempts.
  double shift_initial = 1e-12;
  int max_shift_retries = 6;
  /// Checkpoint/restart (src/ckpt): when non-empty, solvers persist
  /// their factored state into this directory (atomic, checksummed
  /// files) and resume from the newest valid checkpoint instead of
  /// re-factorizing — the restart path for the recovery supervisor
  /// (core/recovery.hpp) and `fdks_tool --checkpoint-dir`.
  std::string checkpoint_dir;
  /// A posteriori certification + escalation ladder (core/verify.hpp).
  /// Like the traversal knobs, deliberately excluded from the factor
  /// fingerprint: it changes how answers are checked, not the factors.
  VerifyPolicy verify;
};

/// Where factorization time goes (accumulated across nodes; thread-safe
/// under the parallel traversals). Feeds the GFLOPS breakdowns of the
/// Table IV bench and performance debugging.
struct FactorProfile {
  double leaf_seconds = 0.0;       ///< Leaf LU/Cholesky + leaf P^.
  double v_assembly_seconds = 0.0; ///< Kernel-block V construction + VW.
  double z_factor_seconds = 0.0;   ///< Reduced-system LU.
  double telescope_seconds = 0.0;  ///< Eq. (10) P^ updates.
  index_t leaves = 0;
  index_t internals = 0;

  double total() const {
    return leaf_seconds + v_assembly_seconds + z_factor_seconds +
           telescope_seconds;
  }
};

/// Aggregated conditioning diagnostics (§III stability detection).
struct StabilityReport {
  double min_leaf_pivot_ratio = 1.0;  ///< min over leaves of |p_min/p_max|.
  double min_z_rcond = 1.0;           ///< min over reduced systems Z.
  index_t flagged_nodes = 0;          ///< Nodes below the threshold.
  double threshold = 1e-12;

  bool stable() const { return flagged_nodes == 0; }
};

struct NodeFactor {
  bool factored = false;
  double diag_shift = 0.0;  ///< Guardrail shift added to the leaf diagonal.
  // Leaf only (exactly one of the two factorizations is populated):
  la::LuFactor leaf_lu;
  la::CholFactor leaf_chol;
  bool leaf_uses_chol = false;
  // Internal only:
  kernel::KernelBlockOp v_lr;  ///< K(l~eff, X_r).
  kernel::KernelBlockOp v_rl;  ///< K(r~eff, X_l).
  la::LuFactor z_lu;           ///< LU of Z_α (eq. 8).
  double z_norm1 = 0.0;        ///< ||Z_α||_1 before factorization.
  // All non-root nodes:
  Matrix phat;  ///< |α| x s_eff(α): P^_{α,α~} (already D^-1-applied).
                ///< Empty for internal nodes in compact_w mode.
  Matrix tmat;  ///< compact_w only: T = Z^-1 P' ((s_l+s_r) x s_α), the
                ///< telescoping stencil P^_α = blockdiag(P^_l,P^_r) T.

  size_t bytes() const;
};

/// Raw accumulator snapshot for checkpoint save/restore (src/ckpt):
/// everything factor_status() derives its report from, minus timings
/// (a restored tree restarts its profile at zero).
struct FactorAccumulators {
  StabilityReport stab;
  index_t shifted_nodes = 0;
  index_t shift_retries = 0;
  index_t nonfinite_nodes = 0;
  double max_shift = 0.0;
};

/// Conditioning ratio of a factored leaf on a common scale: LU pivot
/// ratio, or the squared Cholesky diagonal ratio (Cholesky pivots are
/// sqrt-scaled relative to LU pivots).
double leaf_pivot_ratio(const NodeFactor& f);

/// Shared detector for the §III small-lambda regime: true when the leaf
/// factorization is singular, non-SPD (Cholesky path), or its pivot
/// ratio falls below `threshold`.
bool leaf_near_singular(const NodeFactor& f, double threshold);

/// Throws std::invalid_argument unless U and X are both n x B with the
/// same B. Every solver's block entry calls it before touching data.
void check_solve_shapes(index_t n, la::ConstMatrixView u,
                        la::ConstMatrixView x, const char* who);

/// W = rows [begin, begin + W.rows()) of U permuted into tree order,
/// column by column. Each column passes through a scratch copy, so W
/// may alias U.
void to_tree_order(const HMatrix& h, la::ConstMatrixView u, index_t begin,
                   la::MatrixView w);

/// Permute every column of the N x B tree-order block X back to the
/// original point order, in place.
void from_tree_order(const HMatrix& h, la::MatrixView x);

/// Per-node factor storage plus the factorize/solve kernels, operating
/// in *permuted* (tree) coordinates on contiguous subranges.
class FactorTree {
 public:
  FactorTree(const HMatrix& h, SolverOptions opts);

  const HMatrix& hmatrix() const { return *h_; }
  const SolverOptions& options() const { return opts_; }
  const StabilityReport& stability() const { return stab_; }
  const FactorProfile& profile() const { return profile_; }
  /// Structured factorization outcome (shift retries, NaN detection,
  /// conditioning). Snapshot of the state accumulated so far.
  FactorStatus factor_status() const;
  const NodeFactor& factor(index_t id) const {
    return nf_[static_cast<size_t>(id)];
  }

  /// Factorize the subtree rooted at `id` bottom-up. compute_phat
  /// controls whether the root of this subtree gets its own P^ (needed
  /// when the subtree hangs below a larger factorization or frontier).
  void factorize_subtree(index_t id, bool compute_phat);

  /// Level-synchronous variant (§II-B "level-by-level traversals
  /// combined with shared ... memory parallelism across nodes in the
  /// same level"): all nodes of each level are factorized in a
  /// parallel-for, deepest level first. Produces the same factors.
  void factorize_subtree_levelwise(index_t id, bool compute_phat);

  /// In-place solve (lambda I + K~_αα)^-1 on a strided [node-size x B]
  /// column view (permuted order, rows relative to the node begin):
  /// recursion descends through row sub-views (no copies), skeleton
  /// corrections are single GEMMs over the batch, so every factor matrix
  /// is streamed once per batch. `cancel` (optional) is checked at every
  /// internal node on the way down — the level boundaries of Algorithm
  /// II.3 — and aborts by throwing CancelledError, leaving u partially
  /// overwritten.
  void solve_subtree(index_t id, la::MatrixView u,
                     const CancelToken* cancel = nullptr) const;
  /// The B = 1 view of the block solve.
  void solve_subtree(index_t id, std::span<double> u,
                     const CancelToken* cancel = nullptr) const {
    solve_subtree(id, la::column_view(u), cancel);
  }

  /// Dense |α| x s_eff(α) unfactored basis E_α = P_{α,α~}^T expanded to
  /// point level by telescoping the projections (used by the Subtree
  /// baseline and by tests).
  Matrix expand_projection(index_t id) const;

  /// Y += alpha * P^_id * Z with Z an s_eff(id) x B view and Y a
  /// node-size x B view, independent of storage mode: one GEMM on the
  /// dense factor, or (compact_w) each T stencil telescoped once for
  /// all B columns on the way down to the children's dense factors.
  void apply_phat(index_t id, la::ConstMatrixView z, la::MatrixView y,
                  double alpha = 1.0) const;

  /// Materialize P^_id (|id| x s_eff) regardless of storage mode.
  Matrix dense_phat(index_t id) const;

  /// Total bytes held by factors in the subtree at `id`.
  size_t subtree_bytes(index_t id) const;

  /// Total bytes held by every factored node in the tree, regardless of
  /// topology (full-tree, frontier-subtree, or partial factorizations
  /// all report what is actually resident). This is the figure the
  /// serving cache budgets against (serve.cache_bytes).
  size_t memory_bytes() const;

  // Checkpoint hooks (src/ckpt). FactorTree is non-movable (it guards
  // its accumulators with a mutex), so restore mutates an existing tree
  // built from the same HMatrix/options in place.
  /// Adopt a previously factored per-node state wholesale.
  void adopt_factor(index_t id, NodeFactor f);
  /// Snapshot / restore the factor-status accumulators.
  FactorAccumulators accumulators() const;
  void adopt_accumulators(const FactorAccumulators& acc);

  /// Content checksum over every factored node's numerical payload
  /// (LU/Cholesky blocks, stored V data, Z factors, P^/T matrices,
  /// shifts and node ids), hashed 8-byte word by word in four
  /// interleaved FNV-style lanes. Two trees with identical factors hash
  /// identically; a change confined to one word anywhere changes the
  /// hash. Used for lazy integrity verification on
  /// FactorCache hits and on checkpoint restore (self-healing: a
  /// mismatch invalidates and refactorizes instead of serving garbage).
  std::uint64_t content_checksum() const;

  /// Deterministic fault injection for integrity tests: flip one
  /// mantissa bit in one stored factor double, chosen by `seed` over
  /// all resident factor entries. Returns false when the tree holds no
  /// factored payload to corrupt.
  bool corrupt_factor_bit(std::uint64_t seed);

  /// Change lambda and invalidate the lambda-dependent factors; the next
  /// factorize_subtree() reuses the stored V kernel blocks (the dominant
  /// kernel-evaluation cost) and rebuilds only leaf LUs, Z and P^ — the
  /// fast path for the cross-validation lambda sweeps of §I.
  void set_lambda(double lambda);

 private:
  void factorize_node(index_t id, bool compute_phat);
  void record_stability(index_t id);

  const HMatrix* h_;
  SolverOptions opts_;
  std::vector<NodeFactor> nf_;
  StabilityReport stab_;
  FactorProfile profile_;
  // FactorStatus accumulators (finalized by factor_status()).
  index_t shifted_nodes_ = 0;
  index_t shift_retries_ = 0;
  index_t nonfinite_nodes_ = 0;
  double max_shift_ = 0.0;
  mutable std::mutex stab_mu_;  ///< Guards stab_/profile_/status under
                                ///< parallel traversals.
};

}  // namespace fdks::core
