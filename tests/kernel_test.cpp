// Tests for kernel functions, the lazy kernel-matrix view, and the three
// summation schemes (including GSKS == stored-GEMV parity).
#include <gtest/gtest.h>

#include <bit>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>

#include "kernel/gsks.hpp"
#include "kernel/kernel_matrix.hpp"
#include "kernel/kernels.hpp"
#include "kernel/summation.hpp"
#include "la/gemm.hpp"
#include "la/svd.hpp"
#include "obs/obs.hpp"

namespace fdks::kernel {
namespace {

using la::Matrix;
using la::index_t;

Matrix random_points(index_t d, index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  return Matrix::random_gaussian(d, n, rng);
}

std::vector<index_t> iota_idx(index_t n, index_t start = 0) {
  std::vector<index_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), start);
  return v;
}

// K(rows, cols) one entry() at a time: the scalar reference (sequential
// dot product, Kernel::eval_gram, std::exp) the tile path is held to.
Matrix entry_block(const KernelMatrix& km, std::span<const index_t> rows,
                   std::span<const index_t> cols) {
  Matrix b(static_cast<index_t>(rows.size()),
           static_cast<index_t>(cols.size()));
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t i = 0; i < b.rows(); ++i)
      b(i, j) = km.entry(rows[static_cast<size_t>(i)],
                         cols[static_cast<size_t>(j)]);
  return b;
}

// Distance in units in the last place between two finite doubles of
// the same sign (subnormals count in their own spacing).
int64_t ulps_apart(double a, double b) {
  int64_t ia = 0, ib = 0;
  std::memcpy(&ia, &a, sizeof a);
  std::memcpy(&ib, &b, sizeof b);
  return ia > ib ? ia - ib : ib - ia;
}

// ------------------------------------------------------------ Kernels --

TEST(Kernels, GaussianAtZeroDistanceIsOne) {
  Kernel k = Kernel::gaussian(0.5);
  std::vector<double> x = {1.0, 2.0};
  EXPECT_NEAR(k.eval(x.data(), x.data(), 2), 1.0, 1e-15);
}

TEST(Kernels, GaussianMatchesFormula) {
  Kernel k = Kernel::gaussian(2.0);
  std::vector<double> x = {0.0, 0.0};
  std::vector<double> y = {3.0, 4.0};  // Distance 5.
  EXPECT_NEAR(k.eval(x.data(), y.data(), 2), std::exp(-0.5 * 25.0 / 4.0),
              1e-15);
}

TEST(Kernels, LaplacianMatchesFormula) {
  Kernel k = Kernel::laplacian(2.0);
  std::vector<double> x = {0.0};
  std::vector<double> y = {3.0};
  EXPECT_NEAR(k.eval(x.data(), y.data(), 1), std::exp(-1.5), 1e-15);
}

TEST(Kernels, Matern32MatchesFormula) {
  Kernel k = Kernel::matern32(1.0);
  std::vector<double> x = {0.0};
  std::vector<double> y = {2.0};
  const double r = std::sqrt(3.0) * 2.0;
  EXPECT_NEAR(k.eval(x.data(), y.data(), 1), (1.0 + r) * std::exp(-r), 1e-15);
}

TEST(Kernels, PolynomialMatchesFormula) {
  Kernel k = Kernel::polynomial(1.0, 1.0, 3);
  std::vector<double> x = {1.0, 2.0};
  std::vector<double> y = {3.0, -1.0};  // x.y = 1.
  EXPECT_NEAR(k.eval(x.data(), y.data(), 2), 8.0, 1e-12);  // (1+1)^3.
}

TEST(Kernels, SymmetryHoldsForAllTypes) {
  std::mt19937_64 rng(7);
  Matrix pts = Matrix::random_gaussian(5, 2, rng);
  for (Kernel k : {Kernel::gaussian(0.7), Kernel::laplacian(1.3),
                   Kernel::matern32(0.9), Kernel::polynomial(1.0, 0.5, 2)}) {
    const double kxy = k.eval(pts.col(0), pts.col(1), 5);
    const double kyx = k.eval(pts.col(1), pts.col(0), 5);
    EXPECT_DOUBLE_EQ(kxy, kyx) << k.name();
  }
}

TEST(Kernels, GaussianBandwidthLimits) {
  // Small h: K -> I. Large h: K -> all-ones (paper §I).
  std::vector<double> x = {0.0}, y = {1.0};
  EXPECT_LT(Kernel::gaussian(1e-3).eval(x.data(), y.data(), 1), 1e-300);
  EXPECT_NEAR(Kernel::gaussian(1e3).eval(x.data(), y.data(), 1), 1.0, 1e-6);
}

// ------------------------------------------------------- KernelMatrix --

TEST(KernelMatrix, EntryMatchesDirectEval) {
  Matrix pts = random_points(4, 10, 11);
  Kernel k = Kernel::gaussian(1.0);
  KernelMatrix km(pts, k);
  for (index_t i : {0, 3, 9})
    for (index_t j : {1, 5, 9})
      EXPECT_NEAR(km.entry(i, j), k.eval(pts.col(i), pts.col(j), 4), 1e-14);
}

TEST(KernelMatrix, DiagonalIsOneForRadialKernels) {
  Matrix pts = random_points(8, 6, 12);
  KernelMatrix km(pts, Kernel::gaussian(0.4));
  for (index_t i = 0; i < 6; ++i) EXPECT_NEAR(km.entry(i, i), 1.0, 1e-14);
}

TEST(KernelMatrix, BlockMatchesEntries) {
  Matrix pts = random_points(3, 12, 13);
  KernelMatrix km(pts, Kernel::laplacian(0.8));
  std::vector<index_t> rows = {2, 7, 4};
  std::vector<index_t> cols = {0, 11};
  Matrix b = km.block(rows, cols);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < 3; ++i)
      EXPECT_NEAR(b(i, j), km.entry(rows[i], cols[j]), 1e-14);
}

TEST(KernelMatrix, FullIsSymmetric) {
  Matrix pts = random_points(6, 20, 14);
  KernelMatrix km(pts, Kernel::gaussian(1.2));
  Matrix k = km.full();
  EXPECT_LT(la::max_abs_diff(k, k.transposed()), 1e-14);
}

TEST(KernelMatrix, GaussianIsPositiveSemiDefinite) {
  Matrix pts = random_points(4, 15, 15);
  KernelMatrix km(pts, Kernel::gaussian(0.9));
  auto svd = la::svd_jacobi(km.full());
  // PSD symmetric: singular values == eigenvalues >= 0; check smallest
  // is non-negative within roundoff (it equals |lambda_min|, so instead
  // check via x^T K x >= 0 for a few random x).
  std::mt19937_64 rng(16);
  Matrix k = km.full();
  for (int t = 0; t < 5; ++t) {
    Matrix x = Matrix::random_gaussian(15, 1, rng);
    Matrix kx = la::matmul(k, x);
    double q = 0.0;
    for (index_t i = 0; i < 15; ++i) q += x(i, 0) * kx(i, 0);
    EXPECT_GE(q, -1e-10);
  }
  (void)svd;
}

// --------------------------------------------------------- Tile path --

// The exp the tile path runs (libmvec's AVX2 exp, or std::exp) stays
// within 3 ulps of std::exp over [-745, 0] in a probe of 16M arguments;
// the bound leaves one ulp of slack. Matern-3/2 multiplies the exp by
// (1 + r), one more rounding.
constexpr int64_t kExpUlps = 4;
constexpr int64_t kMaternUlps = kExpUlps + 1;

std::vector<Kernel> all_kernel_types() {
  return {Kernel::gaussian(0.8), Kernel::laplacian(1.1), Kernel::matern32(0.9),
          Kernel::polynomial(1.2, 0.5, 3)};
}

// First-order sensitivity |dK/dG| of each kernel to its Gram entry G =
// x.y at squared distance d2 (d2 = |x|^2 + |y|^2 - 2G).
double gram_sensitivity(const Kernel& k, double g, double d2) {
  const double h2 = k.bandwidth * k.bandwidth;
  switch (k.type) {
    case KernelType::Gaussian:
      return std::exp(k.gaussian_arg(d2)) / h2;
    case KernelType::Laplacian:
      return std::exp(k.laplacian_arg(d2)) / (k.bandwidth * std::sqrt(d2));
    case KernelType::Matern32:
      return 3.0 * std::exp(-k.matern32_r(d2)) / h2;
    case KernelType::Polynomial:
      return k.degree * std::pow(std::abs(g / h2 + k.shift), k.degree - 1) /
             h2;
  }
  return 0.0;
}

// KernelMatrix::block against entry() on full and partial tiles, for all
// four kernels. Rows and columns are disjoint point sets with |x| ~ 1.
// For d <= 256 the Gram tile is bitwise the sequential dot product, so
// the polynomial kernel (no exp) matches bitwise and the exp kernels
// within the exp's ulps. At d = 300 gemm_raw sums in 256-deep chunks, so
// each Gram entry may move by up to 2 gamma_d |x||y| (gamma_d = d eps /
// (1 - d eps), both summation orders' bound), times the kernel's
// sensitivity to it.
TEST(TileBlock, MatchesEntriesOnPartialTiles) {
  const index_t sizes[] = {1, 63, 64, 65, 130};
  for (index_t d : {1, 8, 64, 300}) {
    Matrix pts = random_points(d, 260, static_cast<uint64_t>(100 + d));
    for (index_t j = 0; j < pts.cols(); ++j)
      for (index_t i = 0; i < d; ++i)
        pts(i, j) /= std::sqrt(static_cast<double>(d));
    const double eps = DBL_EPSILON / 2;
    const double gamma_d = d * eps / (1.0 - d * eps);
    for (const Kernel& k : all_kernel_types()) {
      KernelMatrix km(pts, k);
      for (index_t m : sizes)
        for (index_t n : sizes) {
          const auto rows = iota_idx(m);
          const auto cols = iota_idx(n, 130);
          const Matrix b = km.block(rows, cols);
          const Matrix ref = entry_block(km, rows, cols);
          ASSERT_EQ(b.rows(), m);
          ASSERT_EQ(b.cols(), n);
          for (index_t j = 0; j < n; ++j)
            for (index_t i = 0; i < m; ++i) {
              const double got = b(i, j), want = ref(i, j);
              if (d <= 256 && k.type == KernelType::Polynomial) {
                ASSERT_EQ(got, want) << k.name() << " d=" << d;
              } else if (d <= 256) {
                const int64_t bound = k.type == KernelType::Matern32
                                          ? kMaternUlps
                                          : kExpUlps;
                ASSERT_LE(ulps_apart(got, want), bound)
                    << k.name() << " d=" << d << " (" << i << "," << j << ")";
              } else {
                const double xn = std::sqrt(km.sqnorm(rows[i]));
                const double yn = std::sqrt(km.sqnorm(cols[j]));
                double g = 0.0;
                for (index_t p = 0; p < d; ++p)
                  g += pts(p, rows[i]) * pts(p, cols[j]);
                const double d2 =
                    gram_dist2(g, km.sqnorm(rows[i]), km.sqnorm(cols[j]));
                const double tol =
                    kMaternUlps * DBL_EPSILON * std::abs(want) +
                    gram_sensitivity(k, g, d2) * 2.0 * gamma_d * xn * yn;
                ASSERT_NEAR(got, want, tol) << k.name() << " d=" << d;
              }
            }
        }
    }
  }
}

// A tile's entries do not depend on the tile around them: an m x n
// block equals, bitwise, its m * n blocks of size 1 x 1 built from the
// same points, for every kernel. The block straddles tile edges and
// holds pairs of a point with itself.
TEST(TileBlock, EntriesMatchOneByOneBlocksBitwise) {
  for (index_t d : {1, 8, 64}) {
    const Matrix pts = random_points(d, 140, static_cast<uint64_t>(400 + d));
    for (const Kernel& k : all_kernel_types()) {
      KernelMatrix km(pts, k);
      const auto rows = iota_idx(70);
      const auto cols = iota_idx(67, 40);
      const Matrix b = km.block(rows, cols);
      for (index_t j = 0; j < 67; ++j)
        for (index_t i = 0; i < 70; ++i) {
          const index_t r = rows[static_cast<size_t>(i)];
          const index_t c = cols[static_cast<size_t>(j)];
          const Matrix one = km.block(std::span<const index_t>(&r, 1),
                                      std::span<const index_t>(&c, 1));
          ASSERT_EQ(std::bit_cast<uint64_t>(b(i, j)),
                    std::bit_cast<uint64_t>(one(0, 0)))
              << k.name() << " d=" << d << " (" << i << "," << j << ")";
        }
    }
  }
}

TEST(TileBlock, RadialDiagonalIsExactlyOne) {
  // A point's distance to itself is exactly 0 at every d, also past the
  // 256-deep GEMM chunk, so K(i, i) = 1 bitwise (the Gaussian's diagonal
  // is within 1e-14 of 1 a fortiori). Unit-variance points (|x|^2 ~ d)
  // are the hard case for the Laplacian, whose sqrt magnifies a
  // roundoff-sized distance.
  for (index_t d : {1, 8, 64, 300}) {
    const Matrix pts = random_points(d, 130, static_cast<uint64_t>(200 + d));
    for (const Kernel& k : {Kernel::gaussian(0.8), Kernel::laplacian(1.0),
                            Kernel::matern32(0.9)}) {
      KernelMatrix km(pts, k);
      const auto idx = iota_idx(130);
      const Matrix b = km.block(idx, idx);
      for (index_t i = 0; i < 130; ++i)
        ASSERT_EQ(b(i, i), 1.0) << k.name() << " d=" << d << " i=" << i;
    }
  }
}

TEST(TileBlock, SymmetricBlockIsBitwiseSymmetric) {
  // Every entry's exp runs through the same vector routine, the partial
  // tiles' tails included, so K(I, I) is exactly symmetric.
  Matrix pts = random_points(8, 130, 300);
  for (const Kernel& k : all_kernel_types()) {
    KernelMatrix km(pts, k);
    const auto idx = iota_idx(130);
    const Matrix b = km.block(idx, idx);
    for (index_t j = 0; j < 130; ++j)
      for (index_t i = 0; i < j; ++i)
        ASSERT_EQ(b(i, j), b(j, i)) << k.name() << " (" << i << "," << j << ")";
  }
}

TEST(TileBlock, FarFieldUnderflowIsZeroOrSubnormal) {
  // 1-D points: 65 near the origin and 130 spread from where the
  // Gaussian's exponent reaches the subnormal range (-708) out past
  // total underflow (-745) and on to 9300. No exp kernel may produce a
  // NaN, an Inf or a normal number where the reference underflows.
  Matrix pts(1, 195);
  for (index_t i = 0; i < 65; ++i) pts(0, i) = 1e-3 * static_cast<double>(i);
  for (index_t j = 0; j < 130; ++j)
    pts(0, 65 + j) = j < 100 ? 37.6 + 0.02 * static_cast<double>(j)
                             : 100.0 * static_cast<double>(j - 99) * 3.0;
  const auto rows = iota_idx(65);
  const auto cols = iota_idx(130, 65);
  for (const Kernel& k : {Kernel::gaussian(1.0), Kernel::laplacian(0.053),
                          Kernel::matern32(0.09)}) {
    KernelMatrix km(pts, k);
    const Matrix b = km.block(rows, cols);
    const Matrix ref = entry_block(km, rows, cols);
    int underflowed = 0;
    for (index_t j = 0; j < 130; ++j)
      for (index_t i = 0; i < 65; ++i) {
        const double v = b(i, j);
        ASSERT_TRUE(std::isfinite(v)) << k.name();
        ASSERT_GE(v, 0.0) << k.name();
        if (ref(i, j) < DBL_MIN) {
          ++underflowed;
          EXPECT_TRUE(v == 0.0 || std::fpclassify(v) == FP_SUBNORMAL)
              << k.name() << " " << v;
        }
      }
    EXPECT_GT(underflowed, 0) << k.name();
  }
}

// ----------------------------------------------------------- GSKS -----

class GsksParity : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GsksParity, MatchesMaterializedGemv) {
  const auto [d, m, n] = GetParam();
  Matrix pts = random_points(d, m + n, static_cast<uint64_t>(d * m + n));
  KernelMatrix km(pts, Kernel::gaussian(1.1));
  auto rows = iota_idx(m);
  auto cols = iota_idx(n, m);
  std::mt19937_64 rng(21);
  std::vector<double> u(static_cast<size_t>(n));
  std::normal_distribution<double> dist(0.0, 1.0);
  for (auto& v : u) v = dist(rng);

  std::vector<double> y_ref(static_cast<size_t>(m), 0.25);
  Matrix block = km.block(rows, cols);
  la::gemv(la::Trans::No, 1.0, block, u, 1.0, y_ref);

  // km.block shares the tile code under test; entry() does not.
  std::vector<double> y_entry(static_cast<size_t>(m), 0.25);
  la::gemv(la::Trans::No, 1.0, entry_block(km, rows, cols), u, 1.0, y_entry);

  std::vector<double> y_gsks(static_cast<size_t>(m), 0.25);
  gsks_apply(km, rows, cols, u, y_gsks);

  for (index_t i = 0; i < m; ++i) {
    EXPECT_NEAR(y_gsks[static_cast<size_t>(i)], y_ref[static_cast<size_t>(i)],
                1e-11 * n)
        << "d=" << d << " m=" << m << " n=" << n;
    EXPECT_NEAR(y_gsks[static_cast<size_t>(i)],
                y_entry[static_cast<size_t>(i)], 1e-11 * n)
        << "d=" << d << " m=" << m << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GsksParity,
    ::testing::Values(std::make_tuple(1, 5, 7), std::make_tuple(4, 64, 64),
                      std::make_tuple(8, 65, 63), std::make_tuple(20, 200, 150),
                      std::make_tuple(54, 130, 70), std::make_tuple(3, 1, 1),
                      std::make_tuple(16, 128, 129)));

TEST(Gsks, BlockApplyMatchesColumnwise) {
  Matrix pts = random_points(6, 40, 24);
  KernelMatrix km(pts, Kernel::gaussian(0.7));
  auto rows = iota_idx(25);
  auto cols = iota_idx(15, 25);
  std::mt19937_64 rng(25);
  Matrix u = Matrix::random_gaussian(15, 3, rng);
  Matrix y(25, 3);
  gsks_apply_block(km, rows, cols, u, y);
  Matrix exact = la::matmul(km.block(rows, cols), u);
  EXPECT_LT(la::max_abs_diff(y, exact), 1e-11);
  Matrix from_entries = la::matmul(entry_block(km, rows, cols), u);
  EXPECT_LT(la::max_abs_diff(y, from_entries), 1e-11);
}

// Counters are globally gated; flip them on for the duration of a test.
struct ObsOn {
  bool was = obs::enabled();
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was); }
};

TEST(Gsks, BlockApplyShapeMismatchDoesNotCount) {
  ObsOn obs_on;
  // Counting convention (la/gemm.hpp): validate first, count after — a
  // throwing block apply must leave the gsks.* counters untouched.
  Matrix pts = random_points(4, 20, 26);
  KernelMatrix km(pts, Kernel::gaussian(0.7));
  auto rows = iota_idx(12);
  auto cols = iota_idx(8, 12);
  Matrix u(7, 3);  // Wrong row count: needs |cols| = 8.
  Matrix y(12, 3);
  const obs::Snapshot before = obs::snapshot();
  const auto get = [](const obs::Snapshot& s, const char* k) {
    const auto it = s.counters.find(k);
    return it != s.counters.end() ? it->second : 0.0;
  };
  EXPECT_THROW(gsks_apply_block(km, rows, cols, u, y),
               std::invalid_argument);
  const obs::Snapshot after = obs::snapshot();
  EXPECT_DOUBLE_EQ(get(after, "gsks.calls"), get(before, "gsks.calls"));
  EXPECT_DOUBLE_EQ(get(after, "gsks.kernel_evals"),
                   get(before, "gsks.kernel_evals"));
}

TEST(Gsks, BlockApplyCountsKernelEvalsOncePerBatch) {
  ObsOn obs_on;
  // The batching win: one block apply of width B evaluates each kernel
  // tile once, so gsks.kernel_evals grows by m*n — not m*n*B.
  Matrix pts = random_points(4, 30, 27);
  KernelMatrix km(pts, Kernel::gaussian(0.7));
  auto rows = iota_idx(18);
  auto cols = iota_idx(12, 18);
  std::mt19937_64 rng(28);
  Matrix u = Matrix::random_gaussian(12, 5, rng);
  Matrix y(18, 5);
  const obs::Snapshot before = obs::snapshot();
  gsks_apply_block(km, rows, cols, u, y);
  const obs::Snapshot after = obs::snapshot();
  const auto get = [](const obs::Snapshot& s, const char* k) {
    const auto it = s.counters.find(k);
    return it != s.counters.end() ? it->second : 0.0;
  };
  EXPECT_DOUBLE_EQ(get(after, "gsks.kernel_evals"),
                   get(before, "gsks.kernel_evals") + 18.0 * 12.0);
}

// ------------------------------------------------------ KernelBlockOp --

class SchemeParity : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeParity, AllSchemesAgree) {
  const Scheme scheme = GetParam();
  Matrix pts = random_points(7, 50, 31);
  KernelMatrix km(pts, Kernel::gaussian(1.4));
  auto rows = iota_idx(20);
  auto cols = iota_idx(30, 20);
  KernelBlockOp op(&km, rows, cols, scheme);
  KernelBlockOp ref(&km, rows, cols, Scheme::StoredGemv);

  std::mt19937_64 rng(32);
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<double> u(30);
  for (auto& v : u) v = dist(rng);
  std::vector<double> y1(20, 1.0), y2(20, 1.0);
  op.apply(u, y1, 2.0, 0.5);
  ref.apply(u, y2, 2.0, 0.5);
  for (int i = 0; i < 20; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeParity,
                         ::testing::Values(Scheme::StoredGemv,
                                           Scheme::ReevalGemm, Scheme::Gsks));

TEST(KernelBlockOp, StorageAccounting) {
  Matrix pts = random_points(3, 30, 41);
  KernelMatrix km(pts, Kernel::gaussian(1.0));
  auto rows = iota_idx(10);
  auto cols = iota_idx(20, 10);
  EXPECT_EQ(KernelBlockOp(&km, rows, cols, Scheme::StoredGemv).stored_bytes(),
            10u * 20u * sizeof(double));
  EXPECT_EQ(KernelBlockOp(&km, rows, cols, Scheme::Gsks).stored_bytes(), 0u);
  EXPECT_EQ(KernelBlockOp(&km, rows, cols, Scheme::ReevalGemm).stored_bytes(),
            0u);
}

TEST(KernelBlockOp, ApplyShapeMismatchThrows) {
  Matrix pts = random_points(2, 10, 42);
  KernelMatrix km(pts, Kernel::gaussian(1.0));
  KernelBlockOp op(&km, iota_idx(4), iota_idx(6, 4), Scheme::StoredGemv);
  std::vector<double> bad(5), y(4);
  EXPECT_THROW(op.apply(bad, y), std::invalid_argument);
}

}  // namespace
}  // namespace fdks::kernel
