// Numerical-guardrail tests: degenerate inputs (duplicate points,
// lambda -> 0, identical kernel rows) must complete via the automatic
// diagonal-shift retry, GMRES must flag breakdown/stagnation/non-finite
// data instead of looping or emitting garbage, and the hybrid solver
// must auto-escalate its direct factor to a preconditioner when the
// residual misses the tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "core/hybrid.hpp"
#include "core/solver.hpp"
#include "iterative/gmres.hpp"
#include "obs/obs.hpp"

namespace fdks::core {
namespace {

using askit::AskitConfig;
using kernel::Kernel;
using la::Matrix;
using la::index_t;

// Narrow-bandwidth setup: K is close to the identity globally, so the
// only singularities are the ones we inject (duplicate points make the
// corresponding leaf blocks exactly rank-deficient at lambda = 0).
Matrix points_with_duplicates(index_t d, index_t n, int pairs,
                              uint64_t seed) {
  std::mt19937_64 rng(seed);
  Matrix p = Matrix::random_uniform(d, n, rng, -1.0, 1.0);
  for (int k = 0; k < pairs; ++k) {
    const index_t j = static_cast<index_t>(2 * k);
    for (index_t i = 0; i < d; ++i) p(i, j + 1) = p(i, j);
  }
  return p;
}

AskitConfig tight_config() {
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 24;
  cfg.tol = 1e-7;
  cfg.num_neighbors = 0;
  cfg.seed = 11;
  return cfg;
}

std::vector<double> random_vec(index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = g(rng);
  return v;
}

TEST(Guardrails, DuplicatePointsAtZeroLambdaTriggerShiftRetry) {
  obs::set_enabled(true);
  obs::reset();
  const index_t n = 256;
  Matrix pts = points_with_duplicates(3, n, 8, 1);
  askit::HMatrix h(pts, Kernel::gaussian(0.05), tight_config());
  SolverOptions opts;
  opts.lambda = 0.0;  // Exactly singular duplicate-pair leaf blocks.

  FastDirectSolver solver(h, opts);
  const FactorStatus fs = solver.factor_status();
  EXPECT_GE(fs.shifted_nodes, 1);
  EXPECT_GE(fs.shift_retries, 1);
  EXPECT_GT(fs.lambda_effective, 0.0);
  EXPECT_EQ(fs.code, FactorCode::ShiftedDiagonal) << fs.message();
  EXPECT_TRUE(fs.ok());
  // The raw detector still flags the repaired nodes.
  EXPECT_FALSE(solver.stability().stable());

  auto u = random_vec(n, 2);
  std::vector<double> x(static_cast<size_t>(n));
  const SolveStatus st = solver.solve_checked(u, x);
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(st.code, SolveCode::ShiftedDiagonal);
  EXPECT_EQ(st.shifted_nodes, fs.shifted_nodes);
  EXPECT_GT(st.lambda_effective, 0.0);
  EXPECT_TRUE(all_finite(x));
  EXPECT_TRUE(std::isfinite(st.residual));

  const auto counters = obs::snapshot().counters;
  EXPECT_GE(counters.count("guardrail.shifted_nodes"), 1u);
  EXPECT_GE(counters.at("guardrail.shifted_nodes"), 1.0);
  EXPECT_GE(counters.at("guardrail.shift_retries"), 1.0);
  obs::set_enabled(false);
}

TEST(Guardrails, TinyLambdaCompletesViaShift) {
  const index_t n = 192;
  Matrix pts = points_with_duplicates(2, n, 6, 3);
  askit::HMatrix h(pts, Kernel::gaussian(0.05), tight_config());
  SolverOptions opts;
  opts.lambda = 1e-16;  // The small-lambda regime of paper section III.

  FastDirectSolver solver(h, opts);
  const FactorStatus fs = solver.factor_status();
  EXPECT_GE(fs.shifted_nodes, 1);
  EXPECT_GT(fs.lambda_effective, opts.lambda);

  auto u = random_vec(n, 4);
  std::vector<double> x(static_cast<size_t>(n));
  const SolveStatus st = solver.solve_checked(u, x);
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_TRUE(all_finite(x));
}

TEST(Guardrails, AutoShiftOffLeavesNearSingularStatus) {
  const index_t n = 192;
  Matrix pts = points_with_duplicates(2, n, 6, 5);
  askit::HMatrix h(pts, Kernel::gaussian(0.05), tight_config());
  SolverOptions opts;
  opts.lambda = 0.0;
  opts.auto_shift = false;

  FastDirectSolver solver(h, opts);
  const FactorStatus fs = solver.factor_status();
  EXPECT_EQ(fs.shifted_nodes, 0);
  EXPECT_GE(fs.flagged_nodes, 1);
  // Exact duplicates make the leaf LU exactly singular, so the leaf P^
  // solve goes non-finite and the status escalates past NearSingular to
  // NonFinite. Either way the factorization must report failure.
  EXPECT_TRUE(fs.code == FactorCode::NearSingular ||
              fs.code == FactorCode::NonFinite)
      << fs.message();
  EXPECT_FALSE(fs.ok());
}

TEST(Guardrails, CleanProblemReportsOkAndStaysUnshifted) {
  const index_t n = 192;
  std::mt19937_64 rng(7);
  Matrix pts = Matrix::random_uniform(2, n, rng, -1.0, 1.0);
  askit::HMatrix h(pts, Kernel::gaussian(0.5), tight_config());
  SolverOptions opts;
  opts.lambda = 1.0;

  FastDirectSolver solver(h, opts);
  const FactorStatus fs = solver.factor_status();
  EXPECT_EQ(fs.code, FactorCode::Ok) << fs.message();
  EXPECT_EQ(fs.shifted_nodes, 0);
  EXPECT_EQ(fs.lambda_effective, 1.0);

  auto u = random_vec(n, 8);
  std::vector<double> x(static_cast<size_t>(n));
  const SolveStatus st = solver.solve_checked(u, x);
  EXPECT_EQ(st.code, SolveCode::Ok) << st.message();
  EXPECT_LT(st.residual, 1e-10);
}

TEST(Guardrails, SolveCheckedRejectsNonFiniteRhs) {
  const index_t n = 128;
  std::mt19937_64 rng(9);
  Matrix pts = Matrix::random_uniform(2, n, rng, -1.0, 1.0);
  askit::HMatrix h(pts, Kernel::gaussian(0.5), tight_config());
  SolverOptions opts;
  opts.lambda = 1.0;
  FastDirectSolver solver(h, opts);

  auto u = random_vec(n, 10);
  u[17] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x(static_cast<size_t>(n));
  const SolveStatus st = solver.solve_checked(u, x);
  EXPECT_EQ(st.code, SolveCode::NonFinite);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("NaN"), std::string::npos);
}

TEST(Guardrails, GmresFlagsBreakdownOnSingularOperator) {
  // Nilpotent shift-up operator with b = e0: A b is exactly zero, so the
  // Krylov space exhausts immediately while the residual is still ||b||.
  const index_t n = 8;
  auto op = [n](std::span<const double> x, std::span<double> y) {
    for (index_t i = 0; i + 1 < n; ++i)
      y[static_cast<size_t>(i)] = x[static_cast<size_t>(i + 1)];
    y[static_cast<size_t>(n - 1)] = 0.0;
  };
  std::vector<double> b(static_cast<size_t>(n), 0.0);
  b[0] = 1.0;
  iter::GmresOptions go;
  go.rtol = 1e-12;
  go.max_iters = 50;
  const auto r = iter::gmres(n, op, b, go);
  EXPECT_TRUE(r.breakdown);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(all_finite(std::span<const double>(r.x.data(), r.x.size())));
}

TEST(Guardrails, GmresFlagsZeroOperatorAsBreakdownNotConverged) {
  // Regression guard: a zero operator used to "converge" with an Inf
  // solution through a division by the zero Hessenberg pivot.
  const index_t n = 4;
  auto op = [](std::span<const double>, std::span<double> y) {
    std::fill(y.begin(), y.end(), 0.0);
  };
  std::vector<double> b = {1.0, 2.0, 3.0, 4.0};
  const auto r = iter::gmres(n, op, b, {});
  EXPECT_TRUE(r.breakdown);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(all_finite(std::span<const double>(r.x.data(), r.x.size())));
}

TEST(Guardrails, GmresFlagsNonFiniteOperator) {
  const index_t n = 4;
  auto op = [](std::span<const double>, std::span<double> y) {
    std::fill(y.begin(), y.end(),
              std::numeric_limits<double>::quiet_NaN());
  };
  std::vector<double> b = {1.0, 1.0, 1.0, 1.0};
  const auto r = iter::gmres(n, op, b, {});
  EXPECT_TRUE(r.nonfinite);
  EXPECT_FALSE(r.converged);
}

TEST(Guardrails, GmresStagnationDetectorStopsEarly) {
  // Cyclic shift: the GMRES residual stays at ||b|| for n - 1 exact
  // iterations, so a window-5 detector must stop long before that.
  const index_t n = 64;
  auto op = [n](std::span<const double> x, std::span<double> y) {
    for (index_t i = 0; i < n; ++i)
      y[static_cast<size_t>(i)] =
          x[static_cast<size_t>((i + 1) % n)];
  };
  std::vector<double> b(static_cast<size_t>(n), 0.0);
  b[0] = 1.0;
  iter::GmresOptions go;
  go.rtol = 1e-12;
  go.max_iters = 200;
  go.stagnation_window = 5;
  const auto r = iter::gmres(n, op, b, go);
  EXPECT_TRUE(r.stagnated);
  EXPECT_FALSE(r.converged);
  EXPECT_LT(r.iterations, 20);
}

TEST(Guardrails, HybridEscalatesWhenDirectPassMissesTolerance) {
  obs::set_enabled(true);
  obs::reset();
  const index_t n = 512;
  std::mt19937_64 rng(13);
  Matrix pts = Matrix::random_uniform(3, n, rng, -1.0, 1.0);
  AskitConfig cfg = tight_config();
  cfg.max_rank = 40;
  cfg.level_restriction = 3;
  askit::HMatrix h(pts, Kernel::gaussian(0.6), cfg);

  HybridOptions ho;
  ho.direct.lambda = 1.0;
  // Deliberately cripple the reduced-system solve (zero Krylov budget:
  // the solve degenerates to the block-diagonal D^-1 u, which is linear
  // and so doubles as a sound preconditioner for the escalation) so the
  // first pass misses the escalation tolerance.
  ho.gmres.max_iters = 0;
  ho.direct.verify.mode = VerifyMode::Always;
  ho.direct.verify.target_residual = 1e-7;
  ho.direct.verify.escalate_max_iters = 400;
  HybridSolver hy(h, ho);

  auto u = random_vec(n, 14);
  std::vector<double> x(static_cast<size_t>(n));
  const SolveStatus st = hy.solve_with_status(u, x);
  EXPECT_EQ(st.escalations, 1) << st.message();
  EXPECT_EQ(st.code, SolveCode::Escalated) << st.message();
  EXPECT_TRUE(st.ok());
  EXPECT_LT(st.residual, 1e-7);
  EXPECT_TRUE(all_finite(x));

  const auto counters = obs::snapshot().counters;
  EXPECT_GE(counters.at("guardrail.escalations"), 1.0);
  obs::set_enabled(false);
}

TEST(Guardrails, HybridCleanSolveDoesNotEscalate) {
  const index_t n = 384;
  std::mt19937_64 rng(15);
  Matrix pts = Matrix::random_uniform(3, n, rng, -1.0, 1.0);
  AskitConfig cfg = tight_config();
  cfg.max_rank = 40;
  cfg.level_restriction = 2;
  askit::HMatrix h(pts, Kernel::gaussian(0.6), cfg);

  HybridOptions ho;
  ho.direct.lambda = 1.0;
  ho.gmres.rtol = 1e-12;
  ho.direct.verify.mode = VerifyMode::Always;
  ho.direct.verify.target_residual = 1e-6;
  HybridSolver hy(h, ho);

  auto u = random_vec(n, 16);
  std::vector<double> x(static_cast<size_t>(n));
  const SolveStatus st = hy.solve_with_status(u, x);
  EXPECT_EQ(st.escalations, 0) << st.message();
  EXPECT_EQ(st.code, SolveCode::Ok) << st.message();
  EXPECT_LT(st.residual, 1e-6);
}

}  // namespace
}  // namespace fdks::core
