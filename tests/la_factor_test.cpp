// Tests for LU, Cholesky, QR, ID, SVD, and norm estimates.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "la/blas1.hpp"
#include "la/chol.hpp"
#include "la/gemm.hpp"
#include "la/id.hpp"
#include "la/kernels.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "reference_kernels.hpp"

namespace fdks::la {
namespace {

Matrix diag_dominant(index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Matrix a = Matrix::random_gaussian(n, n, rng);
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n) + 1.0;
  return a;
}

Matrix spd_matrix(index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Matrix g = Matrix::random_gaussian(n, n, rng);
  Matrix a = matmul(Trans::Yes, Trans::No, g, g);
  for (index_t i = 0; i < n; ++i) a(i, i) += 1.0;
  return a;
}

// ---------------------------------------------------------------- LU --

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 3;
  LuFactor f = lu_factor(a);
  std::vector<double> b = {3.0, 4.0};  // Solution x = (1, 1).
  lu_solve(f, b);
  EXPECT_NEAR(b[0], 1.0, 1e-14);
  EXPECT_NEAR(b[1], 1.0, 1e-14);
}

TEST(Lu, RequiresSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(lu_factor(a), std::invalid_argument);
}

TEST(Lu, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 4;
  LuFactor f = lu_factor(a);
  EXPECT_TRUE(f.singular || f.min_pivot < 1e-14);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 0;
  LuFactor f = lu_factor(a);
  EXPECT_FALSE(f.singular);
  std::vector<double> b = {2.0, 5.0};
  lu_solve(f, b);
  EXPECT_NEAR(b[0], 5.0, 1e-14);
  EXPECT_NEAR(b[1], 2.0, 1e-14);
}

class LuResidual : public ::testing::TestWithParam<int> {};

TEST_P(LuResidual, SmallRelativeResidual) {
  const index_t n = GetParam();
  Matrix a = diag_dominant(n, static_cast<uint64_t>(n));
  LuFactor f = lu_factor(a);
  EXPECT_FALSE(f.singular);
  std::mt19937_64 rng(99);
  Matrix xexact = Matrix::random_gaussian(n, 1, rng);
  Matrix b = matmul(a, xexact);
  std::vector<double> x(b.data(), b.data() + n);
  lu_solve(f, x);
  double err = 0.0;
  for (index_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(x[static_cast<size_t>(i)] - xexact(i, 0)));
  EXPECT_LT(err, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuResidual,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 127, 128, 129,
                                           192, 300, 517));

TEST(Lu, BlockedFactorReconstructsMatrix) {
  // n > 2*block forces the blocked path; P*L*U must reproduce A.
  const index_t n = 200;
  Matrix a = diag_dominant(n, 77);
  LuFactor f = lu_factor(a);
  // Form L and U explicitly.
  Matrix l = Matrix::identity(n);
  Matrix u(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      if (i > j)
        l(i, j) = f.lu(i, j);
      else
        u(i, j) = f.lu(i, j);
    }
  Matrix lu = matmul(l, u);
  // Undo pivoting: apply swaps to a copy of A.
  Matrix pa = a;
  for (index_t k = 0; k < n; ++k) {
    const index_t p = f.piv[static_cast<size_t>(k)];
    if (p != k)
      for (index_t j = 0; j < n; ++j) std::swap(pa(k, j), pa(p, j));
  }
  EXPECT_LT(max_abs_diff(pa, lu), 1e-9 * norm_fro(a));
}

TEST(Lu, BlockSolveMatchesVectorSolves) {
  Matrix a = diag_dominant(12, 5);
  LuFactor f = lu_factor(a);
  std::mt19937_64 rng(6);
  Matrix b = Matrix::random_gaussian(12, 4, rng);
  Matrix b2 = b;
  lu_solve(f, b2);
  for (index_t j = 0; j < 4; ++j) {
    std::vector<double> col(b.col(j), b.col(j) + 12);
    lu_solve(f, col);
    for (index_t i = 0; i < 12; ++i)
      EXPECT_NEAR(b2(i, j), col[static_cast<size_t>(i)], 1e-13);
  }
}

// The bitwise contract of la/kernels.hpp on the LU: every kernel
// instantiation this CPU supports must reproduce the scalar reference
// loops bit for bit, factor and block solves alike, with exact zeros in
// A and in the right-hand sides and one all-zero right-hand side.
class LuIsa : public ::testing::TestWithParam<detail::Isa> {};

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

TEST_P(LuIsa, FactorAndBlockSolveMatchReferenceBitwise) {
  const detail::Isa isa = GetParam();
  if (!detail::isa_supported(isa))
    GTEST_SKIP() << "this CPU lacks " << detail::isa_name(isa);
  const detail::ScopedIsa scope(isa);
  std::mt19937_64 rng(77);
  for (const index_t n : {1, 7, 64, 65, 128, 129, 256, 300}) {
    Matrix a = Matrix::random_gaussian(n, n, rng);
    for (index_t j = 0; j < n; j += 3) a((j * 5) % n, j) = 0.0;
    const LuFactor got = lu_factor(a);
    const LuFactor want = reference::lu_factor(a);
    ASSERT_EQ(got.piv, want.piv) << "n=" << n;
    ASSERT_TRUE(same_bits(got.min_pivot, want.min_pivot)) << "n=" << n;
    ASSERT_TRUE(same_bits(got.max_pivot, want.max_pivot)) << "n=" << n;
    ASSERT_EQ(got.singular, want.singular);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        ASSERT_TRUE(same_bits(got.lu(i, j), want.lu(i, j)))
            << detail::isa_name(isa) << " n=" << n << " at (" << i << ","
            << j << ")";

    for (const index_t nrhs : {2, 3, 8, 64}) {
      const index_t ld = n + 3;  // A strided view of a taller buffer.
      Matrix rhs = Matrix::random_gaussian(ld, nrhs, rng);
      for (index_t j = 0; j < nrhs; ++j)
        for (index_t i = j % 5; i < n; i += 5) rhs(i, j) = 0.0;
      for (index_t i = 0; i < ld; ++i) rhs(i, nrhs / 2) = 0.0;
      Matrix x = rhs, ref = rhs;
      lu_solve(want, MatrixView(x.data(), n, nrhs, ld));
      reference::lu_solve(want, MatrixView(ref.data(), n, nrhs, ld));
      for (index_t j = 0; j < nrhs; ++j)
        for (index_t i = 0; i < ld; ++i)
          ASSERT_TRUE(same_bits(x(i, j), ref(i, j)))
              << detail::isa_name(isa) << " n=" << n << " B=" << nrhs
              << " at (" << i << "," << j << "): " << x(i, j) << " vs "
              << ref(i, j);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Isas, LuIsa,
    ::testing::Values(detail::Isa::Baseline, detail::Isa::Avx2,
                      detail::Isa::Avx512),
    [](const ::testing::TestParamInfo<detail::Isa>& p) {
      return std::string(detail::isa_name(p.param));
    });

TEST(Lu, RcondTracksConditioning) {
  Matrix good = Matrix::identity(10);
  LuFactor fg = lu_factor(good);
  EXPECT_GT(lu_rcond(fg, norm1(good)), 0.5);

  // Graded diagonal: condition 1e8.
  Matrix bad = Matrix::identity(10);
  bad(9, 9) = 1e-8;
  LuFactor fb = lu_factor(bad);
  const double rc = lu_rcond(fb, norm1(bad));
  EXPECT_LT(rc, 1e-6);
  EXPECT_GT(rc, 0.0);
}

// ----------------------------------------------------------- Cholesky --

TEST(Chol, FactorsAndSolvesSpd) {
  Matrix a = spd_matrix(20, 11);
  CholFactor f = chol_factor(a);
  EXPECT_TRUE(f.spd);
  std::mt19937_64 rng(12);
  Matrix xexact = Matrix::random_gaussian(20, 1, rng);
  Matrix b = matmul(a, xexact);
  std::vector<double> x(b.data(), b.data() + 20);
  chol_solve(f, x);
  for (index_t i = 0; i < 20; ++i)
    EXPECT_NEAR(x[static_cast<size_t>(i)], xexact(i, 0), 1e-9);
}

TEST(Chol, FlagsIndefinite) {
  Matrix a = Matrix::identity(3);
  a(2, 2) = -1.0;
  CholFactor f = chol_factor(a);
  EXPECT_FALSE(f.spd);
}

TEST(Chol, ReconstructsMatrix) {
  Matrix a = spd_matrix(8, 21);
  CholFactor f = chol_factor(a);
  Matrix llt = matmul(Trans::No, Trans::Yes, f.l, f.l);
  EXPECT_LT(max_abs_diff(a, llt), 1e-10 * norm_fro(a));
}

// ----------------------------------------------------------------- QR --

TEST(Qr, ReconstructsMatrix) {
  std::mt19937_64 rng(31);
  Matrix a = Matrix::random_gaussian(12, 7, rng);
  QrFactor f = qr_factor(a);
  Matrix q = qr_form_q(f);
  Matrix r = qr_form_r(f);
  Matrix qr = matmul(q, r);
  EXPECT_LT(max_abs_diff(a, qr), 1e-12);
}

TEST(Qr, QHasOrthonormalColumns) {
  std::mt19937_64 rng(32);
  Matrix a = Matrix::random_gaussian(15, 6, rng);
  Matrix q = qr_form_q(qr_factor(a));
  Matrix qtq = matmul(Trans::Yes, Trans::No, q, q);
  EXPECT_LT(max_abs_diff(qtq, Matrix::identity(6)), 1e-13);
}

TEST(Qr, LeastSquaresRecoversCoefficients) {
  std::mt19937_64 rng(33);
  Matrix a = Matrix::random_gaussian(30, 4, rng);
  std::vector<double> coef = {1.0, -2.0, 0.5, 4.0};
  std::vector<double> b(30, 0.0);
  gemv(Trans::No, 1.0, a, coef, 0.0, b);
  auto x = qr_least_squares(a, b);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x[i], coef[i], 1e-10);
}

TEST(QrPivoted, ReconstructsWithPermutation) {
  std::mt19937_64 rng(34);
  Matrix a = Matrix::random_gaussian(10, 8, rng);
  QrFactor f = qr_factor_pivoted(a);
  Matrix q = qr_form_q(f);
  Matrix r = qr_form_r(f);
  Matrix qr = matmul(q, r);  // Equals A(:, jpvt).
  Matrix aperm = a.select_cols(f.jpvt);
  EXPECT_LT(max_abs_diff(aperm, qr), 1e-12);
}

TEST(QrPivoted, RdiagIsNonIncreasing) {
  std::mt19937_64 rng(35);
  Matrix a = Matrix::random_gaussian(20, 12, rng);
  QrFactor f = qr_factor_pivoted(a);
  auto d = f.rdiag();
  for (size_t k = 1; k < d.size(); ++k)
    EXPECT_LE(d[k], d[k - 1] * (1.0 + 1e-12));
}

TEST(QrPivoted, RevealsNumericalRank) {
  // Build an exactly rank-3 matrix; pivoted QR must truncate there.
  std::mt19937_64 rng(36);
  Matrix u = Matrix::random_gaussian(20, 3, rng);
  Matrix v = Matrix::random_gaussian(3, 15, rng);
  Matrix a = matmul(u, v);
  QrFactor f = qr_factor_pivoted(a, 1e-10);
  EXPECT_EQ(f.rank, 3);
}

TEST(QrPivoted, MaxRankCaps) {
  std::mt19937_64 rng(37);
  Matrix a = Matrix::random_gaussian(16, 16, rng);
  QrFactor f = qr_factor_pivoted(a, 0.0, 5);
  EXPECT_EQ(f.rank, 5);
}

// The bitwise contract of la/kernels.hpp on the QR family: every
// instantiation this CPU supports must reproduce the column-at-a-time
// reference loops bit for bit (qr, tau, jpvt, rank and the achieved
// ratio), pivoted and unpivoted, across panel edges in both m and n,
// with rank stops before, at and after a panel edge.
class QrIsa : public ::testing::TestWithParam<detail::Isa> {};

::testing::AssertionResult same_qr(const QrFactor& got, const QrFactor& want) {
  if (got.rank != want.rank)
    return ::testing::AssertionFailure()
           << "rank " << got.rank << " vs " << want.rank;
  if (got.jpvt != want.jpvt) return ::testing::AssertionFailure() << "jpvt";
  if (!same_bits(got.achieved_tol, want.achieved_tol))
    return ::testing::AssertionFailure() << "achieved_tol " << got.achieved_tol
                                         << " vs " << want.achieved_tol;
  if (got.tau.size() != want.tau.size())
    return ::testing::AssertionFailure() << "tau size";
  for (size_t k = 0; k < got.tau.size(); ++k)
    if (!same_bits(got.tau[k], want.tau[k]))
      return ::testing::AssertionFailure()
             << "tau[" << k << "] " << got.tau[k] << " vs " << want.tau[k];
  if (got.m() != want.m() || got.n() != want.n())
    return ::testing::AssertionFailure() << "shape";
  for (index_t j = 0; j < got.n(); ++j)
    for (index_t i = 0; i < got.m(); ++i)
      if (!same_bits(got.qr(i, j), want.qr(i, j)))
        return ::testing::AssertionFailure()
               << "qr(" << i << "," << j << ") " << got.qr(i, j) << " vs "
               << want.qr(i, j);
  return ::testing::AssertionSuccess();
}

// A Gaussian-kernel block K(x_i, y_j) on points in the unit cube of R^3:
// the singular values decay the way a skeletonization sample's do, so
// tol stops land at many ranks.
Matrix kernel_block(index_t m, index_t n, double h, std::mt19937_64& rng) {
  const Matrix x = Matrix::random_uniform(3, m, rng, 0.0, 1.0);
  const Matrix y = Matrix::random_uniform(3, n, rng, 0.0, 1.0);
  Matrix a(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double d2 = 0.0;
      for (index_t c = 0; c < 3; ++c) {
        const double t = x(c, i) - y(c, j);
        d2 += t * t;
      }
      a(i, j) = std::exp(-d2 / (2.0 * h * h));
    }
  return a;
}

TEST_P(QrIsa, MatchesReferenceBitwise) {
  const detail::Isa isa = GetParam();
  if (!detail::isa_supported(isa))
    GTEST_SKIP() << "this CPU lacks " << detail::isa_name(isa);
  const detail::ScopedIsa scope(isa);
  std::mt19937_64 rng(91);
  int shape = 0;
  for (const index_t m : {1, 7, 64, 288, 544})
    for (const index_t n : {1, 3, 4, 5, 8, 9, 33, 128, 256}) {
      // Alternate kernel blocks (fast decay) with Gaussian matrices
      // (no decay); every third shape gets an exact zero column.
      Matrix a = (shape % 2 == 0) ? kernel_block(m, n, 0.6, rng)
                                  : Matrix::random_gaussian(m, n, rng);
      if (shape % 3 == 0 && n > 1)
        for (index_t i = 0; i < m; ++i) a(i, n / 2) = 0.0;
      ++shape;
      const std::string at = std::string(detail::isa_name(isa)) + " m=" +
                             std::to_string(m) + " n=" + std::to_string(n);
      ASSERT_TRUE(same_qr(qr_factor(a), reference::qr_factor(a)))
          << at << " unpivoted";
      for (const double tol : {0.0, 1e-5, 1e-10})
        for (const index_t cap : {0, 5, 64})
          ASSERT_TRUE(same_qr(qr_factor_pivoted(a, tol, cap),
                              reference::qr_factor_pivoted(a, tol, cap)))
              << at << " tol=" << tol << " max_rank=" << cap;
    }
}

TEST_P(QrIsa, SpecialInputsMatchReferenceBitwise) {
  const detail::Isa isa = GetParam();
  if (!detail::isa_supported(isa))
    GTEST_SKIP() << "this CPU lacks " << detail::isa_name(isa);
  const detail::ScopedIsa scope(isa);
  std::mt19937_64 rng(92);
  std::vector<std::pair<std::string, Matrix>> cases;
  cases.emplace_back("all zero", Matrix(64, 33));
  {
    // Column 9 is column 4 plus 1e-9 noise: once column 4 is a pivot,
    // column 9's downdated norm cancels and is recomputed.
    Matrix a = Matrix::random_gaussian(64, 33, rng);
    for (index_t i = 0; i < 64; ++i)
      a(i, 9) = a(i, 4) * 3.0 + 1e-9 * a(i, 20);
    for (index_t i = 0; i < 64; ++i) a(i, 4) *= 100.0;  // Pivot first.
    cases.emplace_back("near-dependent pair", std::move(a));
  }
  {
    Matrix a = kernel_block(288, 128, 0.6, rng);
    for (index_t i = 0; i < 288; ++i) a(i, 0) = a(i, 127) = 0.0;
    cases.emplace_back("zero columns", std::move(a));
  }
  {
    Matrix a = kernel_block(64, 33, 0.6, rng);
    a(10, 17) = std::numeric_limits<double>::quiet_NaN();
    cases.emplace_back("NaN entry", std::move(a));
  }
  for (const auto& [name, a] : cases) {
    ASSERT_TRUE(same_qr(qr_factor(a), reference::qr_factor(a))) << name;
    for (const double tol : {0.0, 1e-5})
      for (const index_t cap : {0, 5})
        ASSERT_TRUE(same_qr(qr_factor_pivoted(a, tol, cap),
                            reference::qr_factor_pivoted(a, tol, cap)))
            << detail::isa_name(isa) << " " << name << " tol=" << tol
            << " max_rank=" << cap;
  }
}

TEST_P(QrIsa, IdMatchesReferenceBitwise) {
  const detail::Isa isa = GetParam();
  if (!detail::isa_supported(isa))
    GTEST_SKIP() << "this CPU lacks " << detail::isa_name(isa);
  const detail::ScopedIsa scope(isa);
  std::mt19937_64 rng(93);
  for (const auto& [m, n] : {std::pair<index_t, index_t>{544, 256},
                             {288, 128}, {100, 37}}) {
    const Matrix a = kernel_block(m, n, 0.6, rng);
    for (const double tol : {1e-5, 1e-10})
      for (const index_t cap : {0, 64}) {
        const IdResult got = interpolative_decomposition(a, tol, cap);
        const IdResult want = reference::interpolative_decomposition(a, tol, cap);
        const std::string at = std::string(detail::isa_name(isa)) + " m=" +
                               std::to_string(m) + " n=" + std::to_string(n) +
                               " tol=" + std::to_string(tol) +
                               " max_rank=" + std::to_string(cap);
        ASSERT_EQ(got.rank, want.rank) << at;
        ASSERT_EQ(got.skeleton, want.skeleton) << at;
        ASSERT_TRUE(same_bits(got.achieved_tol, want.achieved_tol)) << at;
        ASSERT_EQ(got.rdiag.size(), want.rdiag.size()) << at;
        for (size_t k = 0; k < got.rdiag.size(); ++k)
          ASSERT_TRUE(same_bits(got.rdiag[k], want.rdiag[k])) << at;
        ASSERT_EQ(got.p.rows(), want.p.rows()) << at;
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < got.p.rows(); ++i)
            ASSERT_TRUE(same_bits(got.p(i, j), want.p(i, j)))
                << at << " p(" << i << "," << j << ")";
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Isas, QrIsa,
    ::testing::Values(detail::Isa::Baseline, detail::Isa::Avx2,
                      detail::Isa::Avx512),
    [](const ::testing::TestParamInfo<detail::Isa>& p) {
      return std::string(detail::isa_name(p.param));
    });

// The achieved ratio names where the QR stopped: at a tol stop it is
// |R(s,s)|/|R(0,0)| <= tol; at the max_rank cap it is the next pivot's
// residual norm over |R(0,0)| (here above tol); with every column kept
// it is 0.
TEST(QrPivoted, ReportsAchievedTolerance) {
  std::mt19937_64 rng(38);
  const Matrix a = kernel_block(200, 60, 1.0, rng);
  const QrFactor stop = qr_factor_pivoted(a, 1e-6);
  ASSERT_LT(stop.rank, 60);
  EXPECT_LE(stop.achieved_tol, 1e-6);
  EXPECT_EQ(stop.achieved_tol,
            std::abs(stop.qr(stop.rank, stop.rank)) / std::abs(stop.qr(0, 0)));

  const QrFactor capped = qr_factor_pivoted(a, 1e-6, 5);
  ASSERT_EQ(capped.rank, 5);
  EXPECT_GT(capped.achieved_tol, 1e-6);
  // The downdated norm tracks the true norm of the residual columns.
  double worst = 0.0;
  for (index_t j = 5; j < 60; ++j) {
    double s = 0.0;
    for (index_t i = 5; i < 200; ++i) s += capped.qr(i, j) * capped.qr(i, j);
    worst = std::max(worst, std::sqrt(s));
  }
  EXPECT_NEAR(capped.achieved_tol, worst / std::abs(capped.qr(0, 0)),
              1e-8 * capped.achieved_tol);

  const QrFactor full = qr_factor_pivoted(a.block(0, 0, 200, 4), 1e-6);
  EXPECT_EQ(full.rank, 4);
  EXPECT_EQ(full.achieved_tol, 0.0);
}

// ----------------------------------------------------------------- ID --

TEST(Id, ExactOnLowRank) {
  std::mt19937_64 rng(41);
  Matrix u = Matrix::random_gaussian(30, 4, rng);
  Matrix v = Matrix::random_gaussian(4, 25, rng);
  Matrix a = matmul(u, v);
  IdResult id = interpolative_decomposition(a, 1e-10);
  EXPECT_EQ(id.rank, 4);
  EXPECT_TRUE(id.compressed);
  EXPECT_LT(id_relative_error(a, id), 1e-9);
}

TEST(Id, IdentityOnSkeletonColumns) {
  std::mt19937_64 rng(42);
  Matrix a = Matrix::random_gaussian(10, 6, rng);
  IdResult id = interpolative_decomposition(a, 0.0, 6);
  // P restricted to the skeleton columns must be the identity.
  for (index_t k = 0; k < id.rank; ++k) {
    for (index_t i = 0; i < id.rank; ++i) {
      const double expect = (i == k) ? 1.0 : 0.0;
      EXPECT_NEAR(id.p(i, id.skeleton[static_cast<size_t>(k)]), expect, 1e-12);
    }
  }
}

class IdTolerance : public ::testing::TestWithParam<double> {};

TEST_P(IdTolerance, ErrorTracksTolerance) {
  const double tol = GetParam();
  // Matrix with geometric singular-value decay: sigma_k ~ 2^{-k}.
  const index_t m = 40, n = 30;
  std::mt19937_64 rng(43);
  Matrix g1 = Matrix::random_gaussian(m, n, rng);
  Matrix g2 = Matrix::random_gaussian(n, n, rng);
  QrFactor q1 = qr_factor(g1);
  QrFactor q2 = qr_factor(g2);
  Matrix uu = qr_form_q(q1);
  Matrix vv = qr_form_q(q2);
  Matrix s(n, n);
  for (index_t k = 0; k < n; ++k) s(k, k) = std::pow(2.0, -double(k));
  Matrix a = matmul(matmul(uu, s), vv.transposed());
  IdResult id = interpolative_decomposition(a, tol);
  EXPECT_LT(id.rank, n);
  // ID error can exceed the QR-diag estimate by a modest factor.
  EXPECT_LT(id_relative_error(a, id), 50.0 * tol);
  EXPECT_GT(id.rank, static_cast<index_t>(std::log2(1.0 / tol)) - 4);
}

INSTANTIATE_TEST_SUITE_P(Tolerances, IdTolerance,
                         ::testing::Values(1e-1, 1e-3, 1e-5, 1e-8));

TEST(Id, EmptyMatrix) {
  Matrix a(5, 0);
  IdResult id = interpolative_decomposition(a, 1e-3);
  EXPECT_EQ(id.rank, 0);
  EXPECT_TRUE(id.skeleton.empty());
}

// ---------------------------------------------------------------- SVD --

TEST(Svd, KnownSingularValues) {
  Matrix a(2, 2);
  a(0, 0) = 3; a(1, 1) = 4;  // Diagonal: singular values {4, 3}.
  SvdResult s = svd_jacobi(a);
  ASSERT_EQ(s.sigma.size(), 2u);
  EXPECT_NEAR(s.sigma[0], 4.0, 1e-12);
  EXPECT_NEAR(s.sigma[1], 3.0, 1e-12);
}

TEST(Svd, ReconstructsMatrix) {
  std::mt19937_64 rng(51);
  Matrix a = Matrix::random_gaussian(9, 6, rng);
  SvdResult s = svd_jacobi(a, /*want_vectors=*/true);
  Matrix us(9, 6);
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i < 9; ++i)
      us(i, j) = s.u(i, j) * s.sigma[static_cast<size_t>(j)];
  Matrix rec = matmul(Trans::No, Trans::Yes, us, s.v);
  EXPECT_LT(max_abs_diff(a, rec), 1e-10);
}

TEST(Svd, WideMatrixHandledByTranspose) {
  std::mt19937_64 rng(52);
  Matrix a = Matrix::random_gaussian(4, 9, rng);
  SvdResult s = svd_jacobi(a, true);
  Matrix us(4, 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i)
      us(i, j) = s.u(i, j) * s.sigma[static_cast<size_t>(j)];
  Matrix rec = matmul(Trans::No, Trans::Yes, us, s.v);
  EXPECT_LT(max_abs_diff(a, rec), 1e-10);
}

TEST(Svd, MatchesFrobeniusNorm) {
  std::mt19937_64 rng(53);
  Matrix a = Matrix::random_gaussian(12, 12, rng);
  SvdResult s = svd_jacobi(a);
  double sum2 = 0.0;
  for (double v : s.sigma) sum2 += v * v;
  EXPECT_NEAR(std::sqrt(sum2), norm_fro(a), 1e-10);
}

TEST(Svd, Cond2OfIdentityIsOne) {
  EXPECT_NEAR(cond2(Matrix::identity(6)), 1.0, 1e-12);
}

// -------------------------------------------------------------- Norms --

TEST(Norms, Norm1AndInf) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = -2; a(1, 0) = 3; a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(norm1(a), 6.0);     // Column 1: |-2|+|4| = 6.
  EXPECT_DOUBLE_EQ(norm_inf(a), 7.0);  // Row 1: |3|+|4| = 7.
}

TEST(Norms, Norm2EstimateMatchesSvd) {
  std::mt19937_64 rng(61);
  Matrix a = Matrix::random_gaussian(15, 15, rng);
  const double est = norm2_estimate(a, 60);
  const double exact = svd_jacobi(a).sigma[0];
  EXPECT_NEAR(est / exact, 1.0, 1e-3);
}

TEST(Norms, OperatorEstimateMatchesDense) {
  Matrix a = spd_matrix(10, 62);
  const double exact = svd_jacobi(a).sigma[0];
  const double est = norm2_estimate_op(
      10,
      [&](std::span<const double> x, std::span<double> y) {
        gemv(Trans::No, 1.0, a, x, 0.0, y);
      },
      80);
  EXPECT_NEAR(est / exact, 1.0, 1e-6);
}

}  // namespace
}  // namespace fdks::la
