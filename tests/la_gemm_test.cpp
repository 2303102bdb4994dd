// Tests for GEMV and the blocked GEMM against the triple-loop reference.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "la/gemm.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "obs/obs.hpp"
#include "reference_kernels.hpp"

namespace fdks::la {
namespace {

TEST(Gemv, NoTransMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  std::vector<double> x = {1.0, 1.0, 1.0};
  std::vector<double> y = {100.0, 100.0};
  gemv(Trans::No, 1.0, a, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Gemv, TransMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  std::vector<double> x = {1.0, -1.0};
  std::vector<double> y(3, 0.0);
  gemv(Trans::Yes, 1.0, a, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], -3.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
  EXPECT_DOUBLE_EQ(y[2], -3.0);
}

TEST(Gemv, BetaAccumulates) {
  Matrix a = Matrix::identity(2);
  std::vector<double> x = {1.0, 2.0};
  std::vector<double> y = {10.0, 10.0};
  gemv(Trans::No, 2.0, a, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
}

TEST(Gemv, ShapeMismatchThrows) {
  Matrix a(2, 3);
  std::vector<double> x(2), y(2);
  EXPECT_THROW(gemv(Trans::No, 1.0, a, x, 0.0, y), std::invalid_argument);
}

TEST(Gemm, IdentityIsNoop) {
  std::mt19937_64 rng(1);
  Matrix a = Matrix::random_gaussian(7, 7, rng);
  Matrix c = matmul(a, Matrix::identity(7));
  EXPECT_LT(max_abs_diff(a, c), 1e-15);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3), c(2, 3);
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c),
               std::invalid_argument);
}

TEST(Gemm, BetaZeroOverwritesNanSafe) {
  // beta = 0 must overwrite even when C holds NaN (BLAS semantics).
  Matrix a = Matrix::identity(2);
  Matrix b = Matrix::identity(2);
  Matrix c(2, 2, std::numeric_limits<double>::quiet_NaN());
  gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.0);
}

// Property sweep: blocked GEMM (all transpose combinations, alpha/beta
// variations) must match the reference implementation on odd shapes that
// straddle the blocking boundaries.
class GemmParity
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GemmParity, MatchesReference) {
  const auto [m, n, k, mode] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(m * 73 + n * 31 + k * 7 + mode));
  const Trans ta = (mode & 1) ? Trans::Yes : Trans::No;
  const Trans tb = (mode & 2) ? Trans::Yes : Trans::No;
  Matrix a = (ta == Trans::No) ? Matrix::random_gaussian(m, k, rng)
                               : Matrix::random_gaussian(k, m, rng);
  Matrix b = (tb == Trans::No) ? Matrix::random_gaussian(k, n, rng)
                               : Matrix::random_gaussian(n, k, rng);
  Matrix c0 = Matrix::random_gaussian(m, n, rng);
  Matrix c1 = c0;
  const double alpha = 1.25, beta = -0.5;
  gemm(ta, tb, alpha, a, b, beta, c0);
  gemm_ref(ta, tb, alpha, a, b, beta, c1);
  EXPECT_LT(max_abs_diff(c0, c1), 1e-10 * std::max<index_t>(1, k))
      << "m=" << m << " n=" << n << " k=" << k << " mode=" << mode;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParity,
    ::testing::Values(
        std::make_tuple(1, 1, 1, 0), std::make_tuple(5, 3, 4, 0),
        std::make_tuple(5, 3, 4, 1), std::make_tuple(5, 3, 4, 2),
        std::make_tuple(5, 3, 4, 3), std::make_tuple(33, 17, 65, 0),
        std::make_tuple(129, 130, 257, 0), std::make_tuple(64, 512, 8, 0),
        std::make_tuple(200, 1, 200, 0), std::make_tuple(1, 200, 200, 0),
        std::make_tuple(127, 129, 5, 3), std::make_tuple(96, 96, 96, 0)));

TEST(GemmRaw, StridedSubBlock) {
  // gemm_raw must honor leading dimensions when writing into a window of
  // a larger matrix.
  std::mt19937_64 rng(3);
  Matrix big(10, 10);
  Matrix a = Matrix::random_gaussian(4, 3, rng);
  Matrix b = Matrix::random_gaussian(3, 5, rng);
  gemm_raw(4, 5, 3, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.0,
           big.data() + 2 + 1 * big.ld(), big.ld());
  Matrix exact = matmul(a, b);
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 4; ++i)
      EXPECT_NEAR(big(2 + i, 1 + j), exact(i, j), 1e-12);
  EXPECT_EQ(big(0, 0), 0.0);  // Outside the window untouched.
  EXPECT_EQ(big(9, 9), 0.0);
}

// ---- Counting convention (see gemm.hpp) -----------------------------
//
// Validating routines (gemv, gemm, gsks) count AFTER validation: a
// throwing call must not inflate the flop accounting the bench
// regression gate compares. Raw-pointer routines (gemm_raw) count the
// call at entry because the beta-scale mutates C even when the multiply
// is skipped; flops.* still only counts executed multiply work.

double counter_of(const char* name) {
  const obs::Snapshot s = obs::snapshot();
  const auto it = s.counters.find(name);
  return it != s.counters.end() ? it->second : 0.0;
}

// Counters are globally gated; flip them on for the duration of a test.
struct ObsOn {
  bool was = obs::enabled();
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was); }
};

TEST(Counters, ThrowingGemvDoesNotCount) {
  ObsOn obs_on;
  Matrix a(2, 3);
  std::vector<double> x(2), y(2);  // Wrong x length for NoTrans.
  const double calls0 = counter_of("gemv.calls");
  const double flops0 = counter_of("flops.gemv");
  EXPECT_THROW(gemv(Trans::No, 1.0, a, x, 0.0, y), std::invalid_argument);
  std::vector<double> yt(2);  // Wrong y length for Trans (needs n = 3).
  EXPECT_THROW(gemv(Trans::Yes, 1.0, a, x, 0.0, yt),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(counter_of("gemv.calls"), calls0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemv"), flops0);
}

TEST(Counters, ThrowingGemmDoesNotCount) {
  ObsOn obs_on;
  Matrix a(2, 3), b(2, 3), c(2, 3);
  const double calls0 = counter_of("gemm.calls");
  const double flops0 = counter_of("flops.gemm");
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(counter_of("gemm.calls"), calls0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemm"), flops0);
}

TEST(Counters, GemmRawScaleOnlyCountsCallNotFlops) {
  ObsOn obs_on;
  // k == 0: no multiply work, but the beta-scale still runs — the call
  // is visible in gemm.calls while flops.gemm stays put.
  Matrix c(3, 2);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < 3; ++i) c(i, j) = 4.0;
  const double calls0 = counter_of("gemm.calls");
  const double flops0 = counter_of("flops.gemm");
  gemm_raw(3, 2, 0, 1.0, nullptr, 1, nullptr, 1, 0.5, c.data(), c.ld());
  EXPECT_DOUBLE_EQ(counter_of("gemm.calls"), calls0 + 1.0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemm"), flops0);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);  // The scale was applied.
  EXPECT_DOUBLE_EQ(c(2, 1), 2.0);

  // alpha == 0 with beta == 0: a pure clear, same convention.
  gemm_raw(3, 2, 5, 0.0, nullptr, 1, nullptr, 1, 0.0, c.data(), c.ld());
  EXPECT_DOUBLE_EQ(counter_of("gemm.calls"), calls0 + 2.0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemm"), flops0);
  EXPECT_DOUBLE_EQ(c(1, 1), 0.0);
}

TEST(Counters, ExecutedGemmCountsFlops) {
  ObsOn obs_on;
  std::mt19937_64 rng(9);
  Matrix a = Matrix::random_gaussian(4, 5, rng);
  Matrix b = Matrix::random_gaussian(5, 3, rng);
  Matrix c(4, 3);
  const double calls0 = counter_of("gemm.calls");
  const double flops0 = counter_of("flops.gemm");
  gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
  EXPECT_GE(counter_of("gemm.calls"), calls0 + 1.0);
  EXPECT_DOUBLE_EQ(counter_of("flops.gemm"),
                   flops0 + 2.0 * 4.0 * 5.0 * 3.0);
}

// The block treecode's B = 1 view relies on these: a 1-column GEMM
// reduces like GEMV and a 1-row GEMM like the transposed GEMV, bit for
// bit, for depths up to one kKc = 256 chunk — below and above the
// small-problem cutoff.
TEST(Gemm, OneColumnAndOneRowReduceLikeGemv) {
  std::mt19937_64 rng(21);
  for (const auto& [rows, cols] :
       {std::pair<index_t, index_t>{48, 64}, {200, 250}, {256, 256}}) {
    const Matrix a = Matrix::random_gaussian(rows, cols, rng);
    const Matrix x = Matrix::random_gaussian(cols, 1, rng);
    const Matrix z = Matrix::random_gaussian(rows, 1, rng);

    std::vector<double> ref(static_cast<size_t>(rows));
    gemv(Trans::No, 1.0, a, std::span<const double>(x.data(), x.size()),
         0.0, ref);
    Matrix got(rows, 1);
    gemm(1.0, a, x, 0.0, got);
    for (index_t i = 0; i < rows; ++i)
      ASSERT_EQ(got(i, 0), ref[static_cast<size_t>(i)]) << rows << "x" << cols;

    std::vector<double> reft(static_cast<size_t>(cols));
    gemv(Trans::Yes, 1.0, a, std::span<const double>(z.data(), z.size()),
         0.0, reft);
    Matrix gott(1, cols);
    gemm(1.0, ConstMatrixView(z.data(), 1, rows, 1), a, 0.0, gott);
    for (index_t j = 0; j < cols; ++j)
      ASSERT_EQ(gott(0, j), reft[static_cast<size_t>(j)])
          << rows << "x" << cols;
  }
}

// Narrow right-hand sides (n <= 4) above the small-problem cutoff take a
// path that skips B packing; it must reproduce the packed micro-kernel
// bit for bit. The same call padded to n = 8 runs the packed path, so
// its first n columns are the reference. Widths 5..7 are packed today
// and are covered too, so moving the cutoff cannot change a result.
TEST(GemmRaw, NarrowMatchesPackedBitwise) {
  ObsOn obs_on;
  std::mt19937_64 rng(12);
  std::normal_distribution<double> g(0.0, 1.0);
  const index_t kPad = 8;
  for (const index_t m : {index_t{37}, index_t{300}})
    for (const index_t k : {index_t{255}, index_t{300}, index_t{1000}})
      for (const double beta : {0.0, 1.0, 0.5})
        for (index_t n = 1; n < kPad; ++n) {
          if (m * n * k <= 32 * 32 * 32) continue;  // Small-problem path.
          const double alpha = -0.75;
          const index_t lda = m + 3, ldb = k + 2, ldc = m + 5;
          std::vector<double> a(static_cast<size_t>(lda * k));
          std::vector<double> b(static_cast<size_t>(ldb * kPad));
          std::vector<double> c0(static_cast<size_t>(ldc * kPad));
          for (auto* v : {&a, &b, &c0})
            for (double& x : *v) x = g(rng);
          std::vector<double> narrow = c0, padded = c0;

          const double calls0 = counter_of("gemm.calls");
          const double flops0 = counter_of("flops.gemm");
          gemm_raw(m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                   narrow.data(), ldc);
          EXPECT_DOUBLE_EQ(counter_of("gemm.calls"), calls0 + 1.0);
          EXPECT_DOUBLE_EQ(counter_of("flops.gemm"),
                           flops0 + 2.0 * double(m) * double(n) * double(k));

          gemm_raw(m, kPad, k, alpha, a.data(), lda, b.data(), ldb, beta,
                   padded.data(), ldc);
          for (index_t j = 0; j < kPad; ++j)
            for (index_t i = 0; i < ldc; ++i) {
              const size_t at = static_cast<size_t>(i + j * ldc);
              // Inside the n columns: the packed result, bitwise. Past
              // them, and in the ldc padding rows: untouched.
              const double want =
                  (j < n && i < m) ? padded[at] : c0[at];
              ASSERT_EQ(narrow[at], want)
                  << "m=" << m << " n=" << n << " k=" << k
                  << " beta=" << beta << " at (" << i << "," << j << ")";
            }
        }
}

// ---- The bitwise contract (la/kernels.hpp) -------------------------
//
// Every kernel instantiation this CPU supports must reproduce the scalar
// reference loops bit for bit: both sides of the 32^3 small-problem
// cutoff, the n <= 4 narrow path, every tile edge and the 256-deep
// chunk boundary, on padded leading dimensions, with exact zeros in B
// (skipped terms) and a NaN in one row of A.
class KernelIsa : public ::testing::TestWithParam<detail::Isa> {};

#define SKIP_UNLESS_SUPPORTED(isa)                                  \
  if (!detail::isa_supported(isa))                                  \
  GTEST_SKIP() << "this CPU lacks " << detail::isa_name(isa)

TEST_P(KernelIsa, GemmRawMatchesReferenceBitwise) {
  SKIP_UNLESS_SUPPORTED(GetParam());
  const detail::ScopedIsa scope(GetParam());
  std::mt19937_64 rng(31);
  std::normal_distribution<double> g(0.0, 1.0);
  const double alphas[] = {1.0, -0.75};
  const double betas[] = {0.0, 1.0, 0.5};
  int shape = 0;
  for (const index_t m : {1, 3, 15, 16, 17, 64, 129, 300})
    for (const index_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 513})
      for (const index_t k : {1, 8, 64, 255, 256, 257, 513}) {
        ++shape;
        const double alpha = alphas[shape % 2];
        const double beta = betas[(shape / 2) % 3];
        const index_t lda = m + 3, ldb = k + 2, ldc = m + 5;
        std::vector<double> a(static_cast<size_t>(lda * k));
        std::vector<double> b(static_cast<size_t>(ldb * n));
        std::vector<double> c0(static_cast<size_t>(ldc * n));
        for (auto* v : {&a, &b, &c0})
          for (double& x : *v) x = g(rng);
        for (size_t i = 0; i < b.size(); i += 7) b[i] = 0.0;
        if (m >= 3 && shape % 3 == 0)  // One NaN in row m / 2 of A.
          a[static_cast<size_t>(m / 2 + (k / 2) * lda)] =
              std::numeric_limits<double>::quiet_NaN();
        std::vector<double> got = c0, want = c0;
        gemm_raw(m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                 got.data(), ldc);
        reference::gemm_raw(m, n, k, alpha, a.data(), lda, b.data(), ldb,
                            beta, want.data(), ldc);
        for (size_t at = 0; at < got.size(); ++at)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[at]),
                    std::bit_cast<std::uint64_t>(want[at]))
              << detail::isa_name(GetParam()) << " m=" << m << " n=" << n
              << " k=" << k << " alpha=" << alpha << " beta=" << beta
              << " at (" << at % static_cast<size_t>(ldc) << ","
              << at / static_cast<size_t>(ldc) << "): " << got[at]
              << " vs " << want[at];
      }
}

INSTANTIATE_TEST_SUITE_P(
    Isas, KernelIsa,
    ::testing::Values(detail::Isa::Baseline, detail::Isa::Avx2,
                      detail::Isa::Avx512),
    [](const ::testing::TestParamInfo<detail::Isa>& p) {
      return std::string(detail::isa_name(p.param));
    });

TEST(GemvRaw, MatchesGemv) {
  std::mt19937_64 rng(4);
  Matrix a = Matrix::random_gaussian(6, 4, rng);
  std::vector<double> x = {1.0, -2.0, 0.5, 3.0};
  std::vector<double> y1(6, 1.0), y2(6, 1.0);
  gemv(Trans::No, 2.0, a, x, 3.0, y1);
  gemv_raw(6, 4, 2.0, a.data(), a.ld(), x.data(), 3.0, y2.data());
  for (int i = 0; i < 6; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

}  // namespace
}  // namespace fdks::la
