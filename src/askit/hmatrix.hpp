// Hierarchical (ASKIT-style) approximation of a kernel matrix.
//
// HMatrix owns the ball tree, the permuted point set, and the per-node
// skeletons produced by Algorithm II.1. It is the input to the fast
// direct solver (src/core) and provides the two treecode matvecs:
//
//   apply()        — target-interpolation form, eq. (6): the matrix the
//                    factorization inverts. K_lr ≈ P_ll~ K_l~r.
//   apply_source() — classic ASKIT source-skeleton form:
//                    K_lr ≈ K_lr~ P_r~r. Used as the "ASKIT MatVec" of
//                    the unpreconditioned GMRES baseline (Figure 5).
//
// Nodes above the skeletonization frontier (level restriction L, or
// adaptive failure to compress) have no skeleton of their own; their
// "effective skeleton" is the concatenation of their frontier
// descendants' skeletons, exactly the expanded blocks of Figure 2.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "kernel/kernel_matrix.hpp"
#include "kernel/summation.hpp"
#include "knn/knn.hpp"
#include "tree/ball_tree.hpp"

namespace fdks::askit {

using kernel::Kernel;
using kernel::KernelMatrix;
using la::Matrix;
using la::index_t;

struct AskitConfig {
  index_t leaf_size = 128;        ///< m.
  index_t max_rank = 128;         ///< s_max.
  double tol = 1e-5;              ///< tau (adaptive rank); <=0 fixes rank
                                  ///< at max_rank.
  index_t level_restriction = 0;  ///< L: nodes at level < L are never
                                  ///< skeletonized (0 = only the root).
  index_t num_neighbors = 16;     ///< kappa, neighbour rows per point for
                                  ///< skeleton sampling (0 = uniform only).
  bool approx_neighbors = false;  ///< Use randomized-projection-tree kNN
                                  ///< instead of the exact O(N^2 d) pass
                                  ///< (ASKIT's forest scheme; recommended
                                  ///< for N over ~10k).
  index_t sample_oversampling = 32;  ///< Extra uniform sample rows beyond
                                     ///< the candidate count.
  uint64_t seed = 1234;
  bool adaptive_frontier = true;  ///< Stop skeletonizing a branch when the
                                  ///< ID fails to compress (alpha~ = l~r~).
};

struct NodeSkeleton {
  bool skeletonized = false;
  /// Skeleton point ids, in permuted order.
  std::vector<index_t> skel;
  /// Projection P_{alpha~, cand}: rank-by-|cand| where cand is the
  /// node's own points (leaf) or [l~ r~] (internal).
  Matrix proj;
  /// |R(k,k)| decay from the ID, for diagnostics.
  std::vector<double> rdiag;

  index_t rank() const { return static_cast<index_t>(skel.size()); }
};

struct BuildStats {
  double knn_seconds = 0.0;
  double skeleton_seconds = 0.0;
  index_t max_rank_used = 0;
  index_t frontier_size = 0;
  index_t skeletonized_nodes = 0;
  /// Skeletonized nodes whose ID stopped at max_rank before it met tol
  /// (achieved tolerance above tol). Set by a build, not on the
  /// deserialization path, like the seconds above.
  index_t capped_nodes = 0;
  /// Largest achieved tolerance over the skeletonized nodes: each ID's
  /// sigma_{s+1}/sigma_1 estimate (la::IdResult::achieved_tol).
  double worst_achieved_tol = 0.0;
};

class HMatrix {
 public:
  /// Build the hierarchical representation: ball tree, neighbour lists,
  /// bottom-up skeletonization. points are d-by-N in the caller's
  /// (original) order.
  HMatrix(Matrix points, Kernel k, AskitConfig cfg);

  /// Reconstruct from serialized parts (deserialization path; see
  /// askit/serialize.hpp). Skips tree building and skeletonization;
  /// derived structures (effective skeletons, frontier) are rebuilt.
  HMatrix(Matrix points_original, Kernel k, AskitConfig cfg,
          tree::BallTree t, std::vector<NodeSkeleton> skeletons);

  index_t n() const { return km_.n(); }
  index_t dim() const { return km_.dim(); }
  const AskitConfig& config() const { return cfg_; }
  const tree::BallTree& tree() const { return tree_; }
  /// Kernel matrix over the *permuted* point order.
  const KernelMatrix& km() const { return km_; }
  const Kernel& kernel() const { return km_.kernel(); }
  const BuildStats& stats() const { return stats_; }

  const NodeSkeleton& skeleton(index_t node) const {
    return skeletons_[static_cast<size_t>(node)];
  }

  /// Maximal skeletonized nodes (the frontier A). Their point ranges
  /// partition [0, N).
  const std::vector<index_t>& frontier() const { return frontier_; }

  /// Is node at or below the frontier (i.e., skeletonized)?
  bool is_skeletonized(index_t node) const {
    return skeletons_[static_cast<size_t>(node)].skeletonized;
  }

  /// Effective skeleton: own skeleton when skeletonized, else the
  /// concatenation of children's effective skeletons (frontier
  /// expansion of Figure 2).
  const std::vector<index_t>& effective_skeleton(index_t node) const {
    return eff_skel_[static_cast<size_t>(node)];
  }

  // -- Treecode matvecs (ORIGINAL point order) -------------------------
  //
  // One block treecode on [N x B] panels: every leaf block and sibling
  // interaction is one fused GSKS block apply (each kernel entry is
  // evaluated once per apply, whatever B is), and the skeleton gather
  // and scatter are [s x B] GEMMs. The span overloads are its B = 1
  // view.

  /// Y = (lambda I + K~) W, target-interpolation form (the factorized
  /// operator). W and Y are N x B; Y may alias W.
  void apply(la::ConstMatrixView w, la::MatrixView y,
             double lambda = 0.0) const;
  void apply(std::span<const double> w, std::span<double> y,
             double lambda = 0.0) const;

  /// Y = (lambda I + K~') W, source-skeleton form (classic ASKIT
  /// treecode, the paper's MatVec baseline). Y may alias W.
  void apply_source(la::ConstMatrixView w, la::MatrixView y,
                    double lambda = 0.0) const;
  void apply_source(std::span<const double> w, std::span<double> y,
                    double lambda = 0.0) const;

  /// Per-column relative residuals ||U_j - (lambda I + K~) W_j|| /
  /// ||U_j|| (paper eq. 15; 0 for a zero column of U).
  std::vector<double> relative_residual(la::ConstMatrixView w,
                                        la::ConstMatrixView u,
                                        double lambda) const;
  double relative_residual(std::span<const double> w,
                           std::span<const double> u, double lambda) const;

  // -- Internal-order helpers used by the solver ------------------------

  /// Permute a vector from original to tree order.
  std::vector<double> to_tree_order(std::span<const double> v) const;
  /// Permute a vector from tree order back to original order.
  std::vector<double> from_tree_order(std::span<const double> v) const;

 private:
  void skeletonize_all();
  void skeletonize_node(index_t id, const knn::KnnResult* neighbors,
                        std::mt19937_64& rng);
  void compute_effective_skeletons();
  void compute_frontier();
  void treecode(la::ConstMatrixView w, la::MatrixView y, double lambda,
                bool source_form) const;

  AskitConfig cfg_;
  tree::BallTree tree_;
  KernelMatrix km_;
  std::vector<NodeSkeleton> skeletons_;
  std::vector<std::vector<index_t>> eff_skel_;
  std::vector<index_t> frontier_;
  BuildStats stats_;
};

}  // namespace fdks::askit
