// Differential tests of every solve path against a dense oracle: the
// operator lambda I + K~ each solver inverts, assembled densely from the
// skeleton projections (dense_operator.hpp) and solved with la::lu. The
// tolerance comes from the oracle's own conditioning, not a hand-picked
// constant: a direct solve must land within kC * eps / rcond(A) of the
// dense answer, a hybrid solve (GMRES on the reduced system to rtol)
// within kC * rtol / rcond(A). Every path runs at B in {1, 3, 64} and
// through its span overload. Also checks that each solver's block entry
// validates shapes before it writes anything.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dist_hybrid.hpp"
#include "core/dist_solver.hpp"
#include "core/hybrid.hpp"
#include "core/solver.hpp"
#include "dense_operator.hpp"
#include "la/blas1.hpp"
#include "la/lu.hpp"
#include "mpisim/runtime.hpp"

namespace fdks::core {
namespace {

using askit::AskitConfig;
using kernel::Kernel;
using la::Matrix;
using la::index_t;

/// The one constant of the oracle tolerance (see the file comment).
constexpr double kC = 100.0;
constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kLambda = 0.7;
constexpr double kRtol = 1e-12;
constexpr index_t kN = 512;
constexpr index_t kWidths[] = {1, 3, 64};

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

AskitConfig config(index_t level_restriction) {
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 48;
  cfg.tol = 1e-8;
  cfg.num_neighbors = 8;
  cfg.seed = 7;
  cfg.level_restriction = level_restriction;
  return cfg;
}

/// lambda I + K~ on one HMatrix, LU-factored, with its conditioning.
struct Oracle {
  const askit::HMatrix& h;
  la::LuFactor lu;
  double rcond = 0.0;

  explicit Oracle(const askit::HMatrix& hm) : h(hm) {
    const Matrix a = dense_operator(h, kLambda);
    lu = la::lu_factor(a);
    rcond = la::lu_rcond(lu, la::norm1(a));
  }

  /// The dense answer for U, in original point order.
  Matrix solve(const Matrix& u) const {
    Matrix x(u.rows(), u.cols());
    for (index_t j = 0; j < u.cols(); ++j) {
      std::vector<double> t = h.to_tree_order(
          std::span<const double>(u.col(j), static_cast<size_t>(u.rows())));
      la::lu_solve(lu, t);
      const std::vector<double> xo = h.from_tree_order(t);
      std::copy(xo.begin(), xo.end(), x.col(j));
    }
    return x;
  }
};

/// Worst column's relative 2-norm distance between x and the reference.
double forward_error(const Matrix& x, const Matrix& ref) {
  double worst = 0.0;
  for (index_t j = 0; j < ref.cols(); ++j) {
    const std::span<const double> rj(ref.col(j),
                                     static_cast<size_t>(ref.rows()));
    std::vector<double> d(rj.begin(), rj.end());
    for (index_t i = 0; i < ref.rows(); ++i)
      d[static_cast<size_t>(i)] -= x(i, j);
    worst = std::max(worst, la::nrm2(d) / la::nrm2(rj));
  }
  return worst;
}

Matrix rhs(index_t b, uint64_t seed) {
  std::mt19937_64 rng(seed);
  return Matrix::random_gaussian(kN, b, rng);
}

/// Runs `block_solve` (Matrix overload) at every width and
/// `span_solve` (span overload) on every column of the B = 3 block,
/// against the oracle within `bound`.
template <typename Block, typename Span>
void check_paths(const Oracle& o, double bound, Block block_solve,
                 Span span_solve, const std::string& what) {
  ASSERT_GT(o.rcond, 0.0) << what;
  for (const index_t b : kWidths) {
    const Matrix u = rhs(b, 100 + static_cast<uint64_t>(b));
    const Matrix ref = o.solve(u);
    EXPECT_LE(forward_error(block_solve(u), ref), bound)
        << what << ", B = " << b << ", rcond " << o.rcond;
    if (b != 3) continue;
    Matrix xs(kN, b);
    for (index_t j = 0; j < b; ++j) {
      const std::vector<double> xj = span_solve(
          std::span<const double>(u.col(j), static_cast<size_t>(kN)));
      std::copy(xj.begin(), xj.end(), xs.col(j));
    }
    EXPECT_LE(forward_error(xs, ref), bound)
        << what << ", span overload, rcond " << o.rcond;
  }
}

/// One HMatrix with its dense oracle, built once per test binary.
struct Problem {
  askit::HMatrix h;
  Oracle oracle;
  explicit Problem(index_t level_restriction)
      : h(clustered_points(3, kN, 11), Kernel::gaussian(1.0),
          config(level_restriction)),
        oracle(h) {}
};

const Problem& full() {
  static const Problem p(0);
  return p;
}

/// Level-restricted: the frontier the hybrid solvers need.
const Problem& restricted() {
  static const Problem p(2);
  return p;
}

double direct_bound(const Oracle& o) { return kC * kEps / o.rcond; }
double hybrid_bound(const Oracle& o) { return kC * kRtol / o.rcond; }

HybridOptions hybrid_options() {
  HybridOptions o;
  o.direct.lambda = kLambda;
  o.gmres.rtol = kRtol;
  o.gmres.max_iters = 300;
  return o;
}

void check_direct(SolverOptions so, const std::string& what) {
  so.lambda = kLambda;
  const FastDirectSolver s(full().h, so);
  ASSERT_EQ(s.factor_status().shift_retries, 0) << what;
  check_paths(
      full().oracle, direct_bound(full().oracle),
      [&](const Matrix& u) { return s.solve(u); },
      [&](std::span<const double> u) { return s.solve(u); }, what);
}

TEST(DenseOracle, FastDirectDefault) { check_direct({}, "default"); }

TEST(DenseOracle, FastDirectCompactW) {
  SolverOptions so;
  so.compact_w = true;
  check_direct(so, "compact_w");
}

TEST(DenseOracle, FastDirectGsksScheme) {
  SolverOptions so;
  so.scheme = kernel::Scheme::Gsks;
  check_direct(so, "Scheme::Gsks");
}

TEST(DenseOracle, FastDirectSpdLeaves) {
  SolverOptions so;
  so.spd_leaves = true;
  check_direct(so, "spd_leaves");
}

TEST(DenseOracle, Hybrid) {
  const HybridSolver s(restricted().h, hybrid_options());
  ASSERT_EQ(s.factor_status().shift_retries, 0);
  ASSERT_GT(s.reduced_size(), 0);
  check_paths(
      restricted().oracle, hybrid_bound(restricted().oracle),
      [&](const Matrix& u) { return s.solve(u); },
      [&](std::span<const double> u) { return s.solve(u); }, "hybrid");
}

/// Runs one distributed solver on p ranks and checks rank 0's answers.
template <typename Solver, typename Options>
void check_distributed(const Problem& pr, int p, const Options& opts,
                       double bound, const std::string& what) {
  mpisim::run(p, [&](mpisim::Comm& comm) {
    Solver s(pr.h, opts, comm);
    const bool root = comm.rank() == 0;
    if (root) {
      EXPECT_EQ(s.factor_status().shift_retries, 0) << what;
    }
    // Every rank runs every collective solve; rank 0 records the checks.
    for (const index_t b : kWidths) {
      const Matrix u = rhs(b, 100 + static_cast<uint64_t>(b));
      const Matrix x = s.solve(u);
      Matrix xs(kN, b);
      if (b == 3)
        for (index_t j = 0; j < b; ++j) {
          const std::vector<double> xj = s.solve(
              std::span<const double>(u.col(j), static_cast<size_t>(kN)));
          std::copy(xj.begin(), xj.end(), xs.col(j));
        }
      if (!root) continue;
      const Matrix ref = pr.oracle.solve(u);
      EXPECT_LE(forward_error(x, ref), bound)
          << what << ", B = " << b << ", rcond " << pr.oracle.rcond;
      if (b == 3) {
        EXPECT_LE(forward_error(xs, ref), bound)
            << what << ", span overload, rcond " << pr.oracle.rcond;
      }
    }
  });
}

TEST(DenseOracle, DistributedTwoAndFourRanks) {
  SolverOptions so;
  so.lambda = kLambda;
  for (const int p : {2, 4})
    check_distributed<DistributedSolver>(
        full(), p, so, direct_bound(full().oracle),
        "distributed p = " + std::to_string(p));
}

TEST(DenseOracle, DistributedHybridTwoRanks) {
  check_distributed<DistributedHybridSolver>(
      restricted(), 2, hybrid_options(), hybrid_bound(restricted().oracle),
      "distributed hybrid p = 2");
}

// ---- Shape validation before any data is touched -----------------------

TEST(SolveShapes, ShortSolutionThrowsAndLeavesBufferUnwritten) {
  const index_t n = 256;
  const askit::HMatrix h(clustered_points(3, n, 16), Kernel::gaussian(1.0),
                         config(0));
  SolverOptions so;
  so.lambda = kLambda;
  const FastDirectSolver s(h, so);
  const std::vector<double> u(static_cast<size_t>(n), 1.0);
  std::vector<double> x(static_cast<size_t>(n - 1), 42.0);
  EXPECT_THROW(s.solve(u, x), std::invalid_argument);
  for (const double v : x) ASSERT_EQ(v, 42.0);

  const askit::HMatrix hr(clustered_points(3, n, 16), Kernel::gaussian(1.0),
                          config(2));
  HybridOptions ho;
  ho.direct.lambda = kLambda;
  const HybridSolver hy(hr, ho);
  EXPECT_THROW((void)hy.solve_with_status(u, x), std::invalid_argument);
  for (const double v : x) ASSERT_EQ(v, 42.0);
}

TEST(SolveShapes, BlockEntriesRejectMismatchedWidths) {
  const index_t n = 256;
  const askit::HMatrix h(clustered_points(3, n, 16), Kernel::gaussian(1.0),
                         config(0));
  SolverOptions so;
  so.lambda = kLambda;
  const FastDirectSolver s(h, so);
  const Matrix u(n, 3);
  Matrix x(n, 2);
  EXPECT_THROW(s.solve(u, x), std::invalid_argument);
  Matrix short_rows(n - 1, 3);
  EXPECT_THROW(s.solve(u, short_rows), std::invalid_argument);
}

}  // namespace
}  // namespace fdks::core
