#include "core/factor_tree.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "askit/wire.hpp"
#include "la/gemm.hpp"

namespace fdks::core {

size_t NodeFactor::bytes() const {
  size_t b = 0;
  b += static_cast<size_t>(leaf_chol.l.size()) * sizeof(double);
  b += static_cast<size_t>(leaf_lu.lu.size()) * sizeof(double);
  b += leaf_lu.piv.size() * sizeof(index_t);
  b += static_cast<size_t>(z_lu.lu.size()) * sizeof(double);
  b += z_lu.piv.size() * sizeof(index_t);
  b += static_cast<size_t>(phat.size()) * sizeof(double);
  b += static_cast<size_t>(tmat.size()) * sizeof(double);
  b += v_lr.stored_bytes() + v_rl.stored_bytes();
  return b;
}

double leaf_pivot_ratio(const NodeFactor& f) {
  if (f.leaf_uses_chol) {
    // Cholesky pivots are sqrt-scaled relative to LU pivots; square
    // the diagonal ratio so both paths feed the same threshold.
    const double dmin = f.leaf_chol.min_diag;
    double dmax = 0.0;
    for (index_t i = 0; i < f.leaf_chol.n(); ++i)
      dmax = std::max(dmax, f.leaf_chol.l(i, i));
    return dmax > 0.0 ? (dmin / dmax) * (dmin / dmax) : 0.0;
  }
  return f.leaf_lu.pivot_ratio();
}

bool leaf_near_singular(const NodeFactor& f, double threshold) {
  if (f.leaf_uses_chol)
    return !f.leaf_chol.spd || leaf_pivot_ratio(f) < threshold;
  return f.leaf_lu.singular || leaf_pivot_ratio(f) < threshold;
}

void check_solve_shapes(index_t n, la::ConstMatrixView u,
                        la::ConstMatrixView x, const char* who) {
  if (u.rows() != n || x.rows() != n || u.cols() != x.cols())
    throw std::invalid_argument(
        std::string(who) + ": expected " + std::to_string(n) +
        " x B right-hand side and solution, got " + std::to_string(u.rows()) +
        " x " + std::to_string(u.cols()) + " and " +
        std::to_string(x.rows()) + " x " + std::to_string(x.cols()));
}

void to_tree_order(const HMatrix& h, la::ConstMatrixView u, index_t begin,
                   la::MatrixView w) {
  const auto& perm = h.tree().perm();
  std::vector<double> col(static_cast<size_t>(u.rows()));
  for (index_t j = 0; j < w.cols(); ++j) {
    std::copy(u.col(j), u.col(j) + u.rows(), col.begin());
    for (index_t i = 0; i < w.rows(); ++i)
      w(i, j) = col[static_cast<size_t>(perm[static_cast<size_t>(begin + i)])];
  }
}

void from_tree_order(const HMatrix& h, la::MatrixView x) {
  const auto& perm = h.tree().perm();
  std::vector<double> col(static_cast<size_t>(x.rows()));
  for (index_t j = 0; j < x.cols(); ++j) {
    std::copy(x.col(j), x.col(j) + x.rows(), col.begin());
    for (index_t p = 0; p < x.rows(); ++p)
      x(perm[static_cast<size_t>(p)], j) = col[static_cast<size_t>(p)];
  }
}

FactorTree::FactorTree(const HMatrix& h, SolverOptions opts)
    : h_(&h), opts_(opts) {
  nf_.resize(h.tree().nodes().size());
  stab_.threshold = opts_.rcond_threshold;
}

Matrix FactorTree::expand_projection(index_t id) const {
  const tree::Node& nd = h_->tree().node(id);
  const askit::NodeSkeleton& sk = h_->skeleton(id);

  if (nd.is_leaf()) {
    if (!sk.skeletonized) return Matrix::identity(nd.size());
    return sk.proj.transposed();  // |a| x s.
  }
  Matrix el = expand_projection(nd.left);
  Matrix er = expand_projection(nd.right);
  const index_t sl = el.cols();
  const index_t sr = er.cols();
  if (!sk.skeletonized) {
    // Effective skeleton: block-diagonal concatenation.
    Matrix e(nd.size(), sl + sr);
    e.set_block(0, 0, el);
    e.set_block(el.rows(), sl, er);
    return e;
  }
  // E_α = blockdiag(E_l, E_r) * proj^T.
  const Matrix pt = sk.proj.transposed();  // (sl+sr) x s_α.
  Matrix e(nd.size(), sk.rank());
  Matrix top = la::matmul(el, pt.block(0, 0, sl, pt.cols()));
  Matrix bot = la::matmul(er, pt.block(sl, 0, sr, pt.cols()));
  e.set_block(0, 0, top);
  e.set_block(el.rows(), 0, bot);
  return e;
}

void FactorTree::apply_phat(index_t id, la::ConstMatrixView z,
                            la::MatrixView y, double alpha) const {
  const NodeFactor& f = nf_[static_cast<size_t>(id)];
  const tree::Node& nd = h_->tree().node(id);
  if (f.phat.size() > 0) {  // Dense factor stored (leaf or non-compact).
    la::gemm(alpha, la::ConstMatrixView(f.phat), z, 1.0, y);
    return;
  }
  if (nd.is_leaf())
    throw std::logic_error("apply_phat: leaf without a dense factor");
  // Compact mode: Z2 = T Z once for the whole batch, then descend into
  // the children's W rows with column-aligned sub-views.
  Matrix z2(f.tmat.rows(), z.cols());
  la::gemm(1.0, la::ConstMatrixView(f.tmat), z, 0.0, la::MatrixView(z2));
  const index_t sl = static_cast<index_t>(
      h_->effective_skeleton(nd.left).size());
  const index_t nl = h_->tree().node(nd.left).size();
  const la::ConstMatrixView z2v(z2);
  apply_phat(nd.left, z2v.block(0, 0, sl, z2.cols()),
             y.block(0, 0, nl, y.cols()), alpha);
  apply_phat(nd.right, z2v.block(sl, 0, z2.rows() - sl, z2.cols()),
             y.block(nl, 0, y.rows() - nl, y.cols()), alpha);
}

Matrix FactorTree::dense_phat(index_t id) const {
  const NodeFactor& f = nf_[static_cast<size_t>(id)];
  if (f.phat.size() > 0) return f.phat;
  const index_t s = static_cast<index_t>(h_->effective_skeleton(id).size());
  Matrix out(h_->tree().node(id).size(), s);
  apply_phat(id, Matrix::identity(s), out);
  return out;
}

void FactorTree::set_lambda(double lambda) {
  opts_.lambda = lambda;
  // Invalidate lambda-dependent factors; V kernel blocks stay.
  for (NodeFactor& f : nf_) {
    f.factored = false;
    f.diag_shift = 0.0;
  }
  stab_ = StabilityReport{};
  stab_.threshold = opts_.rcond_threshold;
  profile_ = FactorProfile{};
  shifted_nodes_ = 0;
  shift_retries_ = 0;
  nonfinite_nodes_ = 0;
  max_shift_ = 0.0;
}

FactorStatus FactorTree::factor_status() const {
  std::lock_guard<std::mutex> lock(stab_mu_);
  FactorStatus fs;
  fs.lambda_requested = opts_.lambda;
  fs.lambda_effective = opts_.lambda + max_shift_;
  fs.shifted_nodes = shifted_nodes_;
  fs.shift_retries = shift_retries_;
  fs.nonfinite_nodes = nonfinite_nodes_;
  fs.flagged_nodes = stab_.flagged_nodes;
  if (nonfinite_nodes_ > 0) {
    fs.code = FactorCode::NonFinite;
  } else if (stab_.flagged_nodes > shifted_nodes_) {
    // Flagged nodes beyond the repaired ones: degraded factors remain.
    fs.code = FactorCode::NearSingular;
  } else if (shifted_nodes_ > 0) {
    fs.code = FactorCode::ShiftedDiagonal;
  }
  return fs;
}

void FactorTree::adopt_factor(index_t id, NodeFactor f) {
  if (id < 0 || static_cast<size_t>(id) >= nf_.size())
    throw std::out_of_range("FactorTree::adopt_factor: node id " +
                            std::to_string(id) + " outside [0, " +
                            std::to_string(nf_.size()) + ")");
  nf_[static_cast<size_t>(id)] = std::move(f);
}

FactorAccumulators FactorTree::accumulators() const {
  std::lock_guard<std::mutex> lock(stab_mu_);
  FactorAccumulators acc;
  acc.stab = stab_;
  acc.shifted_nodes = shifted_nodes_;
  acc.shift_retries = shift_retries_;
  acc.nonfinite_nodes = nonfinite_nodes_;
  acc.max_shift = max_shift_;
  return acc;
}

void FactorTree::adopt_accumulators(const FactorAccumulators& acc) {
  std::lock_guard<std::mutex> lock(stab_mu_);
  stab_ = acc.stab;
  shifted_nodes_ = acc.shifted_nodes;
  shift_retries_ = acc.shift_retries;
  nonfinite_nodes_ = acc.nonfinite_nodes;
  max_shift_ = acc.max_shift;
}

size_t FactorTree::subtree_bytes(index_t id) const {
  const tree::Node& nd = h_->tree().node(id);
  size_t b = nf_[static_cast<size_t>(id)].bytes();
  if (!nd.is_leaf())
    b += subtree_bytes(nd.left) + subtree_bytes(nd.right);
  return b;
}

size_t FactorTree::memory_bytes() const {
  // Flat walk over the node table: counts whatever is resident, whether
  // the tree was factorized whole (sequential solver), per frontier
  // subtree (hybrid), or partially (an interrupted factorization).
  size_t b = 0;
  for (const NodeFactor& f : nf_) b += f.bytes();
  return b;
}

namespace {

/// Word-wise content hash. Four independent FNV-style lanes (xor an
/// 8-byte word, multiply by the FNV prime) take the words round-robin,
/// so the multiplies overlap instead of forming one dependent chain per
/// byte. Every step is a bijection of its lane's state and the final
/// fold is injective in each lane, so a change confined to one word
/// always changes the digest.
class WordHash {
 public:
  explicit WordHash(std::uint64_t seed) {
    for (std::uint64_t k = 0; k < 4; ++k) lane_[k] = seed + k;
  }

  void mix(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    size_t i = 0;
    std::uint64_t w[4] = {0, 0, 0, 0};
    for (; i + sizeof w <= n; i += sizeof w) {
      std::memcpy(w, p + i, sizeof w);
      for (size_t k = 0; k < 4; ++k) step(k, w[k]);
    }
    size_t k = 0;
    for (; i < n; i += 8, ++k) {  // Last 0-3 words, the final one padded.
      w[0] = 0;
      std::memcpy(w, p + i, std::min<size_t>(8, n - i));
      step(k, w[0]);
    }
    step(0, n);
  }

  std::uint64_t digest() const {
    std::uint64_t d = lane_[0];
    for (size_t k = 1; k < 4; ++k) d = (d ^ lane_[k]) * kPrime;
    return d;
  }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  void step(size_t k, std::uint64_t w) { lane_[k] = (lane_[k] ^ w) * kPrime; }
  std::uint64_t lane_[4];
};

/// Mix one node factor's numerical payload into the content hash.
/// Covers everything a bit flip could land on that would change an
/// answer: leaf LU/Cholesky blocks + pivots, stored V data, the
/// reduced-system LU, P^/T matrices, and the diagonal shift.
void mix_node_factor(const NodeFactor& f, index_t id, WordHash& hsh) {
  const auto mix_matrix = [&hsh](const Matrix& m) {
    hsh.mix(m.data(), static_cast<size_t>(m.size()) * sizeof(double));
  };
  hsh.mix(&id, sizeof id);
  hsh.mix(&f.diag_shift, sizeof f.diag_shift);
  mix_matrix(f.leaf_lu.lu);
  hsh.mix(f.leaf_lu.piv.data(), f.leaf_lu.piv.size() * sizeof(index_t));
  mix_matrix(f.leaf_chol.l);
  mix_matrix(f.v_lr.stored_block());
  mix_matrix(f.v_rl.stored_block());
  mix_matrix(f.z_lu.lu);
  hsh.mix(f.z_lu.piv.data(), f.z_lu.piv.size() * sizeof(index_t));
  mix_matrix(f.phat);
  mix_matrix(f.tmat);
}

}  // namespace

std::uint64_t FactorTree::content_checksum() const {
  // Flat walk in node order (same rationale as memory_bytes: hashes
  // whatever factors are resident, whatever topology produced them).
  WordHash hsh(askit::wire::fnv1a("fdks-factor-content-v2", 22));
  for (size_t i = 0; i < nf_.size(); ++i) {
    if (!nf_[i].factored) continue;
    mix_node_factor(nf_[i], static_cast<index_t>(i), hsh);
  }
  return hsh.digest();
}

bool FactorTree::corrupt_factor_bit(std::uint64_t seed) {
  // Candidate arrays: every mutable double payload a real bit flip
  // could hit. (V blocks in GSKS mode store no doubles; skip empties.)
  std::vector<std::span<double>> arrays;
  for (NodeFactor& f : nf_) {
    if (!f.factored) continue;
    const auto push = [&arrays](Matrix& m) {
      if (m.size() > 0)
        arrays.emplace_back(m.data(), static_cast<size_t>(m.size()));
    };
    push(f.leaf_lu.lu);
    push(f.leaf_chol.l);
    push(f.z_lu.lu);
    push(f.phat);
    push(f.tmat);
  }
  size_t total = 0;
  for (const auto& a : arrays) total += a.size();
  if (total == 0) return false;
  size_t pick = static_cast<size_t>(seed % total);
  for (auto& a : arrays) {
    if (pick >= a.size()) {
      pick -= a.size();
      continue;
    }
    // Flip a high mantissa bit: large relative perturbation, never a
    // NaN/Inf (sign and exponent stay untouched).
    std::uint64_t bits = 0;
    std::memcpy(&bits, &a[pick], sizeof bits);
    bits ^= (std::uint64_t{1} << 51);
    std::memcpy(&a[pick], &bits, sizeof bits);
    return true;
  }
  return false;
}

void FactorTree::record_stability(index_t id) {
  const NodeFactor& f = nf_[static_cast<size_t>(id)];
  const tree::Node& nd = h_->tree().node(id);
  bool flagged = false;
  double leaf_pr = 1.0, z_rc = 1.0;
  if (nd.is_leaf()) {
    leaf_pr = leaf_pivot_ratio(f);
    // A shifted leaf stays flagged: StabilityReport is the raw §III
    // detector, and a node that needed a shift WAS ill-conditioned —
    // the repaired outcome is reported separately via FactorStatus.
    flagged = leaf_near_singular(f, stab_.threshold) || f.diag_shift > 0.0;
  } else {
    z_rc = la::lu_rcond(f.z_lu, f.z_norm1);
    flagged = f.z_lu.singular || z_rc < stab_.threshold;
  }
  std::lock_guard<std::mutex> lock(stab_mu_);  // parallel_tree tasks.
  stab_.min_leaf_pivot_ratio = std::min(stab_.min_leaf_pivot_ratio, leaf_pr);
  stab_.min_z_rcond = std::min(stab_.min_z_rcond, z_rc);
  if (flagged) ++stab_.flagged_nodes;
}


}  // namespace fdks::core
