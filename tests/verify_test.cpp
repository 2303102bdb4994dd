// Tests for answer certification and self-healing factor integrity:
// the block treecode that certification measures through (block vs
// span vs a dense reference), the a posteriori residual check, the
// refinement/escalation ladder (including the batched
// refine-only-failing-columns path and its equivalence with the
// single-column ladder), the word-wise factor checksum, the
// FactorCache's lazy checksum verification with refactorize-on-mismatch
// healing, and the serving engine's certified Ok path. Runs under the
// `fault` ctest label so the TSan job covers the engine/cache threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dist_solver.hpp"
#include "core/factor_tree.hpp"
#include "core/solver.hpp"
#include "core/verify.hpp"
#include "dense_operator.hpp"
#include "la/gemm.hpp"
#include "mpisim/runtime.hpp"
#include "obs/obs.hpp"
#include "serve/engine.hpp"
#include "serve/factor_cache.hpp"

namespace fdks::core {
namespace {

using askit::AskitConfig;
using kernel::Kernel;
using la::Matrix;
using la::index_t;

Matrix clustered_points(index_t d, index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 0.15);
  std::uniform_int_distribution<int> cl(0, 3);
  Matrix centers = Matrix::random_uniform(d, 4, rng, -2.0, 2.0);
  Matrix p(d, n);
  for (index_t j = 0; j < n; ++j) {
    const int c = cl(rng);
    for (index_t k = 0; k < d; ++k) p(k, j) = centers(k, c) + g(rng);
  }
  return p;
}

AskitConfig tight_config() {
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 48;
  cfg.tol = 1e-8;
  cfg.num_neighbors = 8;
  cfg.seed = 7;
  return cfg;
}

/// Deliberately coarse skeletons: the factor still inverts the
/// target-interpolation operator exactly, but it is O(tol) away from
/// the source-skeleton (Treecode) operator — exactly the gap the
/// refinement ladder is built to close.
AskitConfig coarse_config() {
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 32;
  cfg.tol = 1e-4;
  cfg.num_neighbors = 8;
  cfg.seed = 7;
  return cfg;
}

std::vector<double> random_vec(index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = g(rng);
  return v;
}

double counter(const obs::Snapshot& s, const std::string& k) {
  auto it = s.counters.find(k);
  return it == s.counters.end() ? 0.0 : it->second;
}

/// Counters are off by default process-wide; tests that assert
/// verify.*/refine.* deltas turn them on for their own scope.
struct ObsOn {
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(false); }
};

// ---- Sampling policy -------------------------------------------------

TEST(VerifyPolicyTest, SamplingPicksEveryKth) {
  VerifyPolicy p;
  p.mode = VerifyMode::Sample;
  p.sample_every = 4;
  EXPECT_TRUE(should_verify(p, 0));  // First solve always in-sample.
  EXPECT_FALSE(should_verify(p, 1));
  EXPECT_FALSE(should_verify(p, 3));
  EXPECT_TRUE(should_verify(p, 4));
  EXPECT_TRUE(should_verify(p, 8));
  p.mode = VerifyMode::Off;
  EXPECT_FALSE(should_verify(p, 0));
  p.mode = VerifyMode::Always;
  EXPECT_TRUE(should_verify(p, 3));
}

// ---- Block treecode ----------------------------------------------------

double max_abs(std::span<const double> v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::abs(x));
  return m;
}

/// A level-restricted HMatrix (unskeletonized nodes above the frontier)
/// and a one-leaf tree (the root is the only leaf).
std::vector<askit::HMatrix> treecode_cases() {
  std::vector<askit::HMatrix> hs;
  AskitConfig lr = tight_config();
  lr.level_restriction = 2;
  hs.emplace_back(clustered_points(3, 384, 17), Kernel::gaussian(1.0), lr);
  hs.emplace_back(clustered_points(3, 24, 19), Kernel::gaussian(1.0),
                  tight_config());
  return hs;
}

TEST(BlockTreecodeTest, CasesCoverFrontierAndOneLeafTree) {
  const std::vector<askit::HMatrix> hs = treecode_cases();
  // Level restriction: the root and its children stay unskeletonized.
  EXPECT_FALSE(hs[0].is_skeletonized(hs[0].tree().node(0).left));
  EXPECT_GT(hs[0].stats().skeletonized_nodes, 0);
  EXPECT_EQ(hs[1].tree().nodes().size(), 1u);
}

TEST(BlockTreecodeTest, SpanApplyMatchesDenseOperator) {
  const double lambda = 0.3;
  for (const askit::HMatrix& h : treecode_cases()) {
    const index_t n = h.n();
    const Matrix a = dense_operator(h, lambda);
    const std::vector<double> w = random_vec(n, 31);
    std::vector<double> y(static_cast<size_t>(n), 0.0);
    h.apply(w, y, lambda);

    std::vector<double> wt = h.to_tree_order(w);
    std::vector<double> yt(static_cast<size_t>(n), 0.0);
    la::gemv(la::Trans::No, 1.0, a, wt, 0.0, yt);
    const std::vector<double> ref = h.from_tree_order(yt);
    double worst = 0.0;
    for (size_t i = 0; i < ref.size(); ++i)
      worst = std::max(worst, std::abs(ref[i] - y[i]));
    EXPECT_LE(worst, 1e-12 * max_abs(ref)) << "n = " << n;
  }
}

TEST(BlockTreecodeTest, BlockColumnsMatchSpanApplies) {
  const double lambda = 0.7;
  for (const askit::HMatrix& h : treecode_cases()) {
    const index_t n = h.n();
    for (const index_t nb : {index_t{1}, index_t{3}, index_t{64}}) {
      std::mt19937_64 rng(static_cast<uint64_t>(n + nb));
      const Matrix w = Matrix::random_gaussian(n, nb, rng);
      Matrix y(n, nb), ys(n, nb);
      h.apply(w, y, lambda);
      h.apply_source(w, ys, lambda);
      const std::vector<double> rel = h.relative_residual(w, y, 0.5);
      for (index_t j = 0; j < nb; ++j) {
        const std::span<const double> wj(w.col(j), static_cast<size_t>(n));
        std::vector<double> yj(static_cast<size_t>(n)), ysj(yj.size());
        h.apply(wj, yj, lambda);
        h.apply_source(wj, ysj, lambda);
        for (index_t i = 0; i < n; ++i) {
          ASSERT_NEAR(y(i, j), yj[static_cast<size_t>(i)],
                      1e-13 * max_abs(yj))
              << "apply n=" << n << " B=" << nb << " col " << j;
          ASSERT_NEAR(ys(i, j), ysj[static_cast<size_t>(i)],
                      1e-13 * max_abs(ysj))
              << "apply_source n=" << n << " B=" << nb << " col " << j;
        }
        const double relj = h.relative_residual(
            wj, std::span<const double>(y.col(j), static_cast<size_t>(n)),
            0.5);
        EXPECT_NEAR(rel[static_cast<size_t>(j)], relj, 1e-13 * relj);
      }
    }
  }
}

// ---- Certification of a healthy factor -------------------------------

TEST(CertifyTest, HealthyFactorCertifiesWithoutRefinement) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  so.verify.mode = VerifyMode::Always;
  so.verify.target_residual = 1e-10;
  FastDirectSolver s(h, so);

  const std::vector<double> u = random_vec(n, 3);
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  const VerifyOutcome vo = s.solve_verified(u, x);

  EXPECT_TRUE(vo.measured);
  EXPECT_TRUE(vo.certified);
  EXPECT_GE(vo.residual, 0.0);
  EXPECT_LE(vo.residual, 1e-10);
  // The factor inverts the factorized-form operator to roundoff, so no
  // ladder rungs should have been needed.
  EXPECT_EQ(vo.refine_steps, 0);
  EXPECT_EQ(vo.escalations, 0);
}

// ---- Refinement ladder on a deliberately coarse factor ---------------

TEST(CertifyTest, CoarseFactorRefinesToTarget) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), coarse_config());
  SolverOptions so;
  so.lambda = 1.0;
  so.verify.mode = VerifyMode::Always;
  so.verify.op = VerifyPolicy::Operator::Treecode;
  so.verify.target_residual = 1e-8;
  so.verify.max_refine_steps = 10;
  so.verify.min_step_improvement = 0.9;
  FastDirectSolver s(h, so);

  // The raw factor solve must miss the target against the Treecode
  // operator (otherwise this test exercises nothing).
  const std::vector<double> u = random_vec(n, 5);
  std::vector<double> x0 = s.solve(u);
  std::vector<double> r(static_cast<size_t>(n), 0.0);
  h.apply_source(x0, r, so.lambda);
  double rnorm = 0.0, bnorm = 0.0;
  for (size_t i = 0; i < r.size(); ++i) {
    const double d = u[i] - r[i];
    rnorm += d * d;
    bnorm += u[i] * u[i];
  }
  ASSERT_GT(std::sqrt(rnorm / bnorm), 1e-8);

  ObsOn obs_on;
  const obs::Snapshot before = obs::snapshot();
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  const VerifyOutcome vo = s.solve_verified(u, x);
  const obs::Snapshot after = obs::snapshot();

  EXPECT_TRUE(vo.measured);
  EXPECT_TRUE(vo.certified);
  EXPECT_LE(vo.residual, 1e-8);
  EXPECT_GE(vo.refine_steps, 1);
  EXPECT_EQ(vo.escalations, 0);

  EXPECT_GE(counter(after, "verify.checks") - counter(before, "verify.checks"),
            1.0);
  EXPECT_GE(counter(after, "verify.fail") - counter(before, "verify.fail"),
            1.0);
  EXPECT_GE(counter(after, "refine.steps") - counter(before, "refine.steps"),
            static_cast<double>(vo.refine_steps));
}

TEST(CertifyTest, GmresRungCertifiesWhenRefinementDisabled) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), coarse_config());
  SolverOptions so;
  so.lambda = 1.0;
  so.verify.mode = VerifyMode::Always;
  so.verify.op = VerifyPolicy::Operator::Treecode;
  so.verify.target_residual = 1e-8;
  so.verify.max_refine_steps = 0;  // Straight to rung 2.
  so.verify.escalate_max_iters = 300;
  FastDirectSolver s(h, so);

  const std::vector<double> u = random_vec(n, 9);
  ObsOn obs_on;
  const obs::Snapshot before = obs::snapshot();
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  const VerifyOutcome vo = s.solve_verified(u, x);
  const obs::Snapshot after = obs::snapshot();

  EXPECT_TRUE(vo.certified);
  EXPECT_LE(vo.residual, 1e-8);
  EXPECT_EQ(vo.refine_steps, 0);
  EXPECT_EQ(vo.escalations, 1);
  EXPECT_GE(counter(after, "refine.escalations") -
                counter(before, "refine.escalations"),
            1.0);
}

// ---- Batched ladder: per-column blame, batched repair -----------------

TEST(CertifyTest, BatchRefinesOnlyTheInjectedBadColumn) {
  const index_t n = 384;
  const index_t cols = 4;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  FastDirectSolver s(h, so);

  std::mt19937_64 rng(21);
  const Matrix b = Matrix::random_gaussian(n, cols, rng);
  Matrix x = s.solve(b);

  // Corrupt exactly column 2 of the answer: its residual blows up while
  // its batchmates stay at roundoff.
  for (index_t i = 0; i < n; ++i) x(i, 2) *= 1.5;

  VerifyPolicy p;
  p.mode = VerifyMode::Always;
  p.target_residual = 1e-8;
  const std::vector<VerifyOutcome> outs = certify_and_refine_block(s, b, x, p);

  ASSERT_EQ(outs.size(), static_cast<size_t>(cols));
  for (index_t j = 0; j < cols; ++j) {
    EXPECT_TRUE(outs[static_cast<size_t>(j)].measured);
    EXPECT_TRUE(outs[static_cast<size_t>(j)].certified) << "column " << j;
    EXPECT_LE(outs[static_cast<size_t>(j)].residual, 1e-8);
    if (j != 2) {
      EXPECT_EQ(outs[static_cast<size_t>(j)].refine_steps, 0)
          << "healthy column " << j << " must not be re-solved";
    }
  }
  EXPECT_GE(outs[2].refine_steps, 1);
}

// ---- Block ladder ≡ single-column ladder -------------------------------

/// A B = 8 batch whose answers are exact except two columns forced to
/// fail: column 2 scaled (rung 1 repairs it) and column 5 NaN (straight
/// to the GMRES rung).
struct FailingBatch {
  Matrix b, x;
};

FailingBatch failing_batch(const FastDirectSolver& s, index_t n) {
  std::mt19937_64 rng(23);
  FailingBatch fb{Matrix::random_gaussian(n, 8, rng), Matrix()};
  fb.x = s.solve(fb.b);
  for (index_t i = 0; i < n; ++i) {
    fb.x(i, 2) *= 1.5;
    fb.x(i, 5) = std::nan("");
  }
  return fb;
}

TEST(CertifyTest, BlockLadderMatchesSingleColumnLadder) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  FastDirectSolver s(h, so);
  VerifyPolicy p;
  p.mode = VerifyMode::Always;
  p.target_residual = 1e-10;

  FailingBatch fb = failing_batch(s, n);
  Matrix xb = fb.x;
  const std::vector<VerifyOutcome> block =
      certify_and_refine_block(s, fb.b, xb, p);
  ASSERT_EQ(block.size(), 8u);
  for (index_t j = 0; j < 8; ++j) {
    std::vector<double> xj(fb.x.col(j), fb.x.col(j) + n);
    const VerifyOutcome one = certify_and_refine(
        s, std::span<const double>(fb.b.col(j), static_cast<size_t>(n)), xj,
        p);
    const VerifyOutcome& blk = block[static_cast<size_t>(j)];
    EXPECT_EQ(blk.certified, one.certified) << "column " << j;
    EXPECT_EQ(blk.refine_steps, one.refine_steps) << "column " << j;
    EXPECT_EQ(blk.escalations, one.escalations) << "column " << j;
    EXPECT_NEAR(blk.residual, one.residual, 1e-13) << "column " << j;
  }
  EXPECT_EQ(block[2].refine_steps, 1);
  EXPECT_EQ(block[5].escalations, 1);
  for (const VerifyOutcome& o : block) EXPECT_TRUE(o.certified);
}

TEST(CertifyTest, BlockRungZeroCostsOneSpanApply) {
  const index_t n = 384;
  Matrix pts = clustered_points(3, n, 11);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  FastDirectSolver s(h, so);
  VerifyPolicy p;
  p.mode = VerifyMode::Always;
  p.target_residual = 1e-10;
  p.max_refine_steps = 0;  // Rung 0 only: measure, then stop.
  p.escalate = false;

  ObsOn obs_on;
  const std::vector<double> w = random_vec(n, 41);
  std::vector<double> y(static_cast<size_t>(n));
  const obs::Snapshot a0 = obs::snapshot();
  h.apply(w, y, so.lambda);
  const obs::Snapshot a1 = obs::snapshot();

  FailingBatch fb = failing_batch(s, n);
  const obs::Snapshot b0 = obs::snapshot();
  const std::vector<VerifyOutcome> outs =
      certify_and_refine_block(s, fb.b, fb.x, p);
  const obs::Snapshot b1 = obs::snapshot();

  for (const char* key : {"gsks.calls", "gsks.kernel_evals"}) {
    const double span_apply = counter(a1, key) - counter(a0, key);
    EXPECT_GT(span_apply, 0.0) << key;
    EXPECT_EQ(counter(b1, key) - counter(b0, key), span_apply) << key;
  }
  EXPECT_EQ(counter(b1, "verify.checks") - counter(b0, "verify.checks"), 8.0);
  EXPECT_EQ(counter(b1, "verify.fail") - counter(b0, "verify.fail"), 2.0);
  EXPECT_FALSE(outs[2].certified);
  EXPECT_FALSE(outs[5].certified);
}

// ---- Factor integrity: seal, corrupt, detect --------------------------

TEST(IntegrityTest, CorruptionFlipsVerifyIntegrity) {
  const index_t n = 256;
  Matrix pts = clustered_points(3, n, 13);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  FastDirectSolver s(h, so);

  EXPECT_TRUE(s.verify_integrity());
  ASSERT_TRUE(s.corrupt_factor_bit(12345));
  ObsOn obs_on;
  const obs::Snapshot before = obs::snapshot();
  EXPECT_FALSE(s.verify_integrity());
  const obs::Snapshot after = obs::snapshot();
  EXPECT_GE(counter(after, "verify.integrity_fail") -
                counter(before, "verify.integrity_fail"),
            1.0);

  // Refactorizing reseals: integrity holds again.
  s.refactorize(so.lambda);
  EXPECT_TRUE(s.verify_integrity());
}

/// Every payload array the content checksum covers, of one node factor,
/// as mutable byte ranges of a copy.
std::vector<std::pair<std::string, std::span<unsigned char>>> payload_arrays(
    NodeFactor& f, Matrix& v_lr, Matrix& v_rl) {
  std::vector<std::pair<std::string, std::span<unsigned char>>> out;
  const auto add = [&out](const char* name, void* p, size_t bytes) {
    if (bytes > 0)
      out.emplace_back(name,
                       std::span<unsigned char>(
                           static_cast<unsigned char*>(p), bytes));
  };
  const auto add_m = [&add](const char* name, Matrix& m) {
    add(name, m.data(), static_cast<size_t>(m.size()) * sizeof(double));
  };
  add("diag_shift", &f.diag_shift, sizeof f.diag_shift);
  add_m("leaf_lu.lu", f.leaf_lu.lu);
  add("leaf_lu.piv", f.leaf_lu.piv.data(),
      f.leaf_lu.piv.size() * sizeof(index_t));
  add_m("leaf_chol.l", f.leaf_chol.l);
  add_m("v_lr", v_lr);
  add_m("v_rl", v_rl);
  add_m("z_lu.lu", f.z_lu.lu);
  add("z_lu.piv", f.z_lu.piv.data(), f.z_lu.piv.size() * sizeof(index_t));
  add_m("phat", f.phat);
  add_m("tmat", f.tmat);
  return out;
}

/// Rebuilds a V operator around a (possibly corrupted) stored block.
kernel::KernelBlockOp with_block(const kernel::KernelBlockOp& v,
                                 const kernel::KernelMatrix* km, Matrix m) {
  return kernel::KernelBlockOp(km, v.row_ids(), v.col_ids(), v.scheme(),
                               std::move(m));
}

TEST(IntegrityTest, OneBitFlipInAnyPayloadArrayIsDetected) {
  const index_t n = 256;
  Matrix pts = clustered_points(3, n, 13);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  // Dense P^ with LU leaves, and compact-W with Cholesky leaves: between
  // them every payload array is populated.
  SolverOptions dense;
  dense.lambda = 1.0;
  SolverOptions compact = dense;
  compact.compact_w = true;
  compact.spd_leaves = true;
  std::set<std::string> seen;
  for (const SolverOptions& so : {dense, compact}) {
    FactorTree ft(h, so);
    ft.factorize_subtree(h.tree().root(), /*compute_phat=*/false);
    const std::uint64_t sealed = ft.content_checksum();
    for (index_t id = 0; id < static_cast<index_t>(h.tree().nodes().size());
         ++id) {
      const NodeFactor orig = ft.factor(id);
      if (!orig.factored) continue;
      NodeFactor probe = orig;
      Matrix v_lr = orig.v_lr.stored_block(), v_rl = orig.v_rl.stored_block();
      for (auto& [name, bytes] : payload_arrays(probe, v_lr, v_rl)) {
        const size_t words = (bytes.size() + 7) / 8;
        for (const size_t w : {size_t{0}, words / 2, words - 1}) {
          const size_t at = std::min(bytes.size() - 1, 8 * w + w % 8);
          const auto mask = static_cast<unsigned char>(1u << (w % 8));
          bytes[at] ^= mask;
          NodeFactor bad = probe;
          if (v_lr.size() > 0) bad.v_lr = with_block(orig.v_lr, &h.km(), v_lr);
          if (v_rl.size() > 0) bad.v_rl = with_block(orig.v_rl, &h.km(), v_rl);
          ft.adopt_factor(id, std::move(bad));
          EXPECT_NE(ft.content_checksum(), sealed)
              << name << " of node " << id << ", byte " << at;
          bytes[at] ^= mask;
          ft.adopt_factor(id, orig);
        }
        seen.insert(name);
      }
      ASSERT_EQ(ft.content_checksum(), sealed);
    }
  }
  // diag_shift is a payload "array" too (one word per node).
  EXPECT_EQ(seen.size(), 10u);

  // Through the solver: a flip at sampled positions of every double
  // array the fault hook reaches fails verify_integrity, and flipping
  // the same bit back restores it.
  FastDirectSolver s(h, dense);
  std::uint64_t offset = 0;
  std::vector<std::uint64_t> seeds;
  for (index_t id = 0; id < static_cast<index_t>(h.tree().nodes().size());
       ++id) {
    const NodeFactor& f = s.factor_tree().factor(id);
    if (!f.factored) continue;
    for (const Matrix* m :
         {&f.leaf_lu.lu, &f.leaf_chol.l, &f.z_lu.lu, &f.phat, &f.tmat}) {
      const auto size = static_cast<std::uint64_t>(m->size());
      if (size == 0) continue;
      for (const std::uint64_t at : {std::uint64_t{0}, size / 2, size - 1})
        seeds.push_back(offset + at);
      offset += size;
    }
  }
  ASSERT_FALSE(seeds.empty());
  for (const std::uint64_t seed : seeds) {
    ASSERT_TRUE(s.corrupt_factor_bit(seed));
    EXPECT_FALSE(s.verify_integrity()) << "seed " << seed;
    ASSERT_TRUE(s.corrupt_factor_bit(seed));  // Same bit back.
    ASSERT_TRUE(s.verify_integrity()) << "seed " << seed;
  }
}

// ---- Distributed certification (collective ladder) --------------------

TEST(DistVerifyTest, DistributedSolveCarriesCertifiedResidual) {
  const index_t n = 256;
  Matrix pts = clustered_points(3, n, 1);
  askit::HMatrix h(pts, Kernel::gaussian(1.0), tight_config());
  SolverOptions so;
  so.lambda = 0.7;
  so.verify.mode = VerifyMode::Always;
  so.verify.target_residual = 1e-9;

  const std::vector<double> u = random_vec(n, 2);
  mpisim::run(2, [&](mpisim::Comm& comm) {
    DistributedSolver solver(h, so, comm);
    const std::vector<double> x = solver.solve(u);
    const SolveStatus& st = solver.last_status();
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_GE(st.residual, 0.0);
    EXPECT_LE(st.residual, 1e-9);
  });
}

}  // namespace
}  // namespace fdks::core

namespace fdks::serve {
namespace {

using core::FastDirectSolver;
using core::SolverOptions;
using core::VerifyMode;
using la::Matrix;
using la::index_t;

// ---- Cache self-healing ----------------------------------------------

TEST(CacheIntegrityTest, BitFlipDetectedOnHitAndHealedByRefactorization) {
  const index_t n = 256;
  Matrix pts = fdks::core::clustered_points(3, n, 13);
  askit::HMatrix h(pts, kernel::Kernel::gaussian(1.0),
                   fdks::core::tight_config());
  SolverOptions so;
  so.lambda = 1.0;

  int factorizations = 0;
  std::shared_ptr<FastDirectSolver> last;  // Mutable handle for the test.
  FactorCacheOptions co;
  co.capacity = 2;
  co.integrity_check_every = 1;  // Verify on every hit.
  co.factory = [&](const core::HMatrix& hm, const SolverOptions& o) {
    ++factorizations;
    auto sp = std::make_shared<FastDirectSolver>(hm, o);
    last = sp;
    return sp;
  };
  FactorCache cache(co);

  const auto s1 = cache.get(h, so);
  ASSERT_EQ(factorizations, 1);
  const std::vector<double> u = fdks::core::random_vec(n, 4);
  const std::vector<double> x_clean = s1->solve(u);

  // Flip one mantissa bit somewhere in the resident factor. The next
  // hit must detect the mismatch, drop the entry, and refactorize.
  ASSERT_TRUE(last->corrupt_factor_bit(987654321));
  const auto s2 = cache.get(h, so);
  EXPECT_EQ(factorizations, 2);
  EXPECT_NE(s1.get(), s2.get());
  EXPECT_EQ(cache.stats().integrity_failures, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // The healed factor answers like the clean one did.
  const std::vector<double> x_healed = s2->solve(u);
  double worst = 0.0;
  for (size_t i = 0; i < x_clean.size(); ++i)
    worst = std::max(worst, std::abs(x_clean[i] - x_healed[i]));
  EXPECT_LE(worst, 1e-12);

  // A subsequent hit on the fresh entry passes its integrity check and
  // returns the same solver without another factorization.
  const auto s3 = cache.get(h, so);
  EXPECT_EQ(s2.get(), s3.get());
  EXPECT_EQ(factorizations, 2);
  EXPECT_EQ(cache.stats().integrity_failures, 1u);
}

// ---- Serving: every certified answer carries its residual -------------

TEST(ServeVerifyTest, AlwaysPolicyMeasuresEveryServedAnswer) {
  const index_t n = 256;
  Matrix pts = fdks::core::clustered_points(3, n, 13);
  askit::HMatrix h(pts, kernel::Kernel::gaussian(1.0),
                   fdks::core::tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  auto solver = std::make_shared<const FastDirectSolver>(h, so);

  ServeOptions sopts;
  sopts.batch_max = 8;
  sopts.start_paused = true;
  sopts.verify.mode = VerifyMode::Always;
  sopts.verify.target_residual = 1e-8;
  ServeEngine engine(solver, sopts);

  const size_t kRequests = 5;
  std::vector<std::future<ServeResult>> futs;
  for (size_t r = 0; r < kRequests; ++r)
    futs.push_back(
        engine.submit(fdks::core::random_vec(n, 100 + r)));
  engine.resume();

  for (auto& f : futs) {
    const ServeResult res = f.get();
    EXPECT_EQ(res.code, ServeCode::Ok);
    EXPECT_GE(res.residual, 0.0) << "certified answer missing residual";
    EXPECT_LE(res.residual, 1e-8);
  }
  engine.drain();
  const ServeEngine::Stats st = engine.stats();
  EXPECT_EQ(st.verified, kRequests);
  EXPECT_EQ(st.failed, 0u);
  engine.shutdown();
}

// ---- Serving: an uncertifiable answer fails structurally --------------

TEST(ServeVerifyTest, UncertifiableAnswerFailsWithSolveFailed) {
  const index_t n = 256;
  Matrix pts = fdks::core::clustered_points(3, n, 13);
  askit::HMatrix h(pts, kernel::Kernel::gaussian(1.0),
                   fdks::core::tight_config());
  SolverOptions so;
  so.lambda = 1.0;
  auto solver = std::make_shared<FastDirectSolver>(h, so);
  // Corrupt the factor widely (one flipped mantissa bit can land on a
  // negligible entry) and forbid every ladder rung: certification must
  // surface SolveFailed instead of returning the wrong answer.
  for (std::uint64_t seed = 0; seed < 32; ++seed)
    ASSERT_TRUE(solver->corrupt_factor_bit(1000 + seed));

  ServeOptions sopts;
  sopts.batch_max = 4;
  sopts.start_paused = true;
  sopts.verify.mode = VerifyMode::Always;
  sopts.verify.target_residual = 1e-12;
  sopts.verify.max_refine_steps = 0;
  sopts.verify.escalate = false;
  ServeEngine engine(solver, sopts);

  auto fut = engine.submit(fdks::core::random_vec(n, 77));
  engine.resume();
  try {
    (void)fut.get();
    FAIL() << "expected ServeError(SolveFailed)";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeCode::SolveFailed);
    EXPECT_NE(std::string(e.what()).find("residual"), std::string::npos);
  }
  engine.drain();
  EXPECT_EQ(engine.stats().failed, 1u);
  engine.shutdown();
}

}  // namespace
}  // namespace fdks::serve
