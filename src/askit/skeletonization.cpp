// Construction of the hierarchical representation: tree build, neighbour
// sampling, and the bottom-up skeletonization of Algorithm II.1.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "askit/hmatrix.hpp"
#include "knn/rp_tree.hpp"
#include "la/id.hpp"
#include "obs/obs.hpp"

namespace fdks::askit {

HMatrix::HMatrix(Matrix points, Kernel k, AskitConfig cfg)
    : cfg_(cfg),
      tree_(points, tree::BallTreeConfig{cfg.leaf_size, cfg.seed}),
      km_(tree_.permuted_points(points), k) {
  if (cfg_.max_rank < 1)
    throw std::invalid_argument("AskitConfig: max_rank must be >= 1");
  skeletons_.resize(tree_.nodes().size());
  skeletonize_all();
  compute_effective_skeletons();
}

void HMatrix::skeletonize_all() {
  // Timings feed both BuildStats (per-instance view) and the shared obs
  // registry; when the caller opens a "setup" scope around construction
  // these nest under it in the reported trace tree.
  obs::ScopedTimer t_knn("knn");

  // Optional neighbour lists (kappa-NN over the permuted points) used to
  // bias the sampled rows S' toward the near field, as in ASKIT. For
  // num_neighbors == 0 the sampler is purely uniform.
  std::optional<knn::KnnResult> neighbors;
  if (cfg_.num_neighbors > 0 && n() > 1) {
    const index_t k = std::min(cfg_.num_neighbors, n() - 1);
    if (cfg_.approx_neighbors) {
      knn::RpTreeConfig rp;
      rp.seed = cfg_.seed + 3;
      neighbors = knn::approx_knn(km_.points(), k, rp);
    } else {
      neighbors = knn::exact_knn(km_.points(), k);
    }
  }
  stats_.knn_seconds = t_knn.stop();

  obs::ScopedTimer t_skel("skeletonize");
  std::mt19937_64 rng(cfg_.seed + 17);
  // Bottom-up: levels() is indexed by level; walk deepest first. Nodes
  // within a level are independent — this is the paper's level-by-level
  // parallel traversal (we keep it sequential per level here because
  // skeletonization shares the RNG; the factorization is the hot path).
  const auto& levels = tree_.levels();
  for (index_t l = static_cast<index_t>(levels.size()) - 1; l >= 0; --l) {
    for (index_t id : levels[static_cast<size_t>(l)]) {
      skeletonize_node(id, neighbors ? &*neighbors : nullptr, rng);
    }
  }
  stats_.skeleton_seconds = t_skel.stop();

  double rank_sum = 0.0;
  for (const NodeSkeleton& s : skeletons_) {
    if (s.skeletonized) {
      ++stats_.skeletonized_nodes;
      stats_.max_rank_used = std::max(stats_.max_rank_used, s.rank());
      rank_sum += double(s.rank());
    }
  }
  obs::add("skeleton.nodes", double(stats_.skeletonized_nodes));
  obs::add("skeleton.rank_sum", rank_sum);
  obs::add("skeleton.capped_nodes", double(stats_.capped_nodes));

  compute_frontier();
  stats_.frontier_size = static_cast<index_t>(frontier_.size());
}

void HMatrix::compute_frontier() {
  // Frontier: skeletonized nodes whose parent is not skeletonized (the
  // root is never skeletonized, so children of the root can be frontier
  // nodes). Ordered by point range for deterministic traversals.
  frontier_.clear();
  for (index_t id = 0; id < static_cast<index_t>(tree_.nodes().size());
       ++id) {
    const tree::Node& nd = tree_.node(id);
    if (!is_skeletonized(id)) continue;
    if (nd.parent < 0 || !is_skeletonized(nd.parent)) frontier_.push_back(id);
  }
  std::sort(frontier_.begin(), frontier_.end(), [&](index_t a, index_t b) {
    return tree_.node(a).begin < tree_.node(b).begin;
  });
}

HMatrix::HMatrix(Matrix points_original, Kernel k, AskitConfig cfg,
                 tree::BallTree t, std::vector<NodeSkeleton> skeletons)
    : cfg_(cfg),
      tree_(std::move(t)),
      km_(tree_.permuted_points(points_original), k),
      skeletons_(std::move(skeletons)) {
  if (skeletons_.size() != tree_.nodes().size())
    throw std::invalid_argument("HMatrix: skeleton/node count mismatch");
  for (const NodeSkeleton& s : skeletons_) {
    if (s.skeletonized) {
      ++stats_.skeletonized_nodes;
      stats_.max_rank_used = std::max(stats_.max_rank_used, s.rank());
    }
  }
  compute_frontier();
  stats_.frontier_size = static_cast<index_t>(frontier_.size());
  compute_effective_skeletons();
}

void HMatrix::skeletonize_node(index_t id, const knn::KnnResult* neighbors,
                               std::mt19937_64& rng) {
  const tree::Node& nd = tree_.node(id);
  NodeSkeleton& out = skeletons_[static_cast<size_t>(id)];

  // The root has an empty complement: nothing to skeletonize against.
  if (nd.parent < 0) return;

  // Candidate columns: own points for a leaf, children skeletons for an
  // internal node (Algorithm II.1).
  std::vector<index_t> cand;
  if (nd.is_leaf()) {
    cand.resize(static_cast<size_t>(nd.size()));
    std::iota(cand.begin(), cand.end(), nd.begin);
  } else {
    const NodeSkeleton& ls = skeletons_[static_cast<size_t>(nd.left)];
    const NodeSkeleton& rs = skeletons_[static_cast<size_t>(nd.right)];
    // If a child failed to skeletonize, this node cannot either (the
    // frontier property: unskeletonized branches stay unskeletonized).
    if (!ls.skeletonized || !rs.skeletonized) return;
    // Level restriction: never skeletonize internal nodes above L.
    if (nd.level < std::max<index_t>(1, cfg_.level_restriction)) return;
    cand = ls.skel;
    cand.insert(cand.end(), rs.skel.begin(), rs.skel.end());
  }

  // ---- Row sampling: S' subset of the complement of the node ----------
  const index_t ncomp = n() - nd.size();
  if (ncomp == 0) return;
  const index_t target_rows =
      std::min(ncomp, 2 * static_cast<index_t>(cand.size()) +
                          cfg_.sample_oversampling);

  std::vector<index_t> rows;
  rows.reserve(static_cast<size_t>(target_rows));
  std::unordered_set<index_t> seen;
  auto add_row = [&](index_t p) {
    if (p < 0) return;  // Approximate-kNN padding.
    if (p >= nd.begin && p < nd.end) return;  // Inside the node.
    if (seen.insert(p).second) rows.push_back(p);
  };

  // Near-field bias: neighbours of the candidate points that fall
  // outside the node.
  if (neighbors != nullptr) {
    for (index_t c : cand) {
      for (index_t j = 0; j < neighbors->k; ++j) {
        add_row(neighbors->id(c, j));
        if (static_cast<index_t>(rows.size()) >= target_rows / 2) break;
      }
      if (static_cast<index_t>(rows.size()) >= target_rows / 2) break;
    }
  }

  // Fill with uniform samples from the complement. The complement is
  // [0, begin) u [end, N): draw an offset and skip over the node.
  std::uniform_int_distribution<index_t> pick(0, ncomp - 1);
  index_t guard = 16 * target_rows + 64;
  while (static_cast<index_t>(rows.size()) < target_rows && guard-- > 0) {
    index_t p = pick(rng);
    if (p >= nd.begin) p += nd.size();
    add_row(p);
  }

  // ---- ID on the sampled block K(S', cand) ----------------------------
  const Matrix a = km_.block(rows, cand);
  const index_t cap = std::min<index_t>(cfg_.max_rank,
                                        static_cast<index_t>(cand.size()));
  la::IdResult idr = la::interpolative_decomposition(a, cfg_.tol, cap);

  // Adaptive frontier: an internal node whose ID kept every candidate
  // achieved no compression (alpha~ = l~ u r~); terminate this branch
  // (paper §II-A "level restriction").
  if (cfg_.adaptive_frontier && !nd.is_leaf() && cfg_.tol > 0.0 &&
      idr.rank == static_cast<index_t>(cand.size()) &&
      idr.rank < cfg_.max_rank) {
    return;
  }

  out.skeletonized = true;
  out.skel.resize(static_cast<size_t>(idr.rank));
  for (index_t j = 0; j < idr.rank; ++j)
    out.skel[static_cast<size_t>(j)] =
        cand[static_cast<size_t>(idr.skeleton[static_cast<size_t>(j)])];
  out.proj = std::move(idr.p);
  out.rdiag = std::move(idr.rdiag);

  // Which criterion stopped the ID: a node whose achieved ratio is not
  // at most tol (NaN included) was capped by max_rank.
  const double achieved = idr.achieved_tol;
  obs::hist("skeleton.achieved_tol", achieved);
  if (!(achieved <= cfg_.tol)) ++stats_.capped_nodes;
  if (std::isnan(achieved) || achieved > stats_.worst_achieved_tol)
    stats_.worst_achieved_tol = achieved;
}

void HMatrix::compute_effective_skeletons() {
  const index_t nn = static_cast<index_t>(tree_.nodes().size());
  eff_skel_.assign(static_cast<size_t>(nn), {});
  // Children have larger ids than parents (creation order), so a reverse
  // sweep is a valid post-order.
  for (index_t id = nn - 1; id >= 0; --id) {
    const tree::Node& nd = tree_.node(id);
    auto& eff = eff_skel_[static_cast<size_t>(id)];
    if (is_skeletonized(id)) {
      eff = skeletons_[static_cast<size_t>(id)].skel;
    } else if (!nd.is_leaf()) {
      eff = eff_skel_[static_cast<size_t>(nd.left)];
      const auto& r = eff_skel_[static_cast<size_t>(nd.right)];
      eff.insert(eff.end(), r.begin(), r.end());
    } else {
      // An unskeletonized leaf can only be the root of a one-node tree;
      // its "skeleton" is all of its points.
      eff.resize(static_cast<size_t>(nd.size()));
      std::iota(eff.begin(), eff.end(), nd.begin);
    }
  }
}

}  // namespace fdks::askit
