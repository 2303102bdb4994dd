#include "kernel/tile.hpp"

#include <algorithm>
#include <cmath>

#include "la/gemm.hpp"

#ifdef __x86_64__
#include <immintrin.h>

// glibc libmvec's 4-lane AVX2 exp (the vector-ABI name of exp). It is
// declared by hand: <math.h> announces it only under -ffast-math.
extern "C" __m256d _ZGVdN4v_exp(__m256d x);
#endif

namespace fdks::kernel {

namespace {

using ExpFn = void (*)(double*, index_t);

void exp_scalar(double* x, index_t n) {
  for (index_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
}

#ifdef __x86_64__
__attribute__((target("avx2,fma"))) void exp_avx2(double* x, index_t n) {
  index_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(x + i, _ZGVdN4v_exp(_mm256_loadu_pd(x + i)));
  if (i == n) return;
  // The tail takes one more vector call, padded with exp(0), so no
  // entry's value depends on where it sits in the column.
  double pad[4] = {0.0, 0.0, 0.0, 0.0};
  std::copy(x + i, x + n, pad);
  _mm256_storeu_pd(pad, _ZGVdN4v_exp(_mm256_loadu_pd(pad)));
  std::copy(pad, pad + (n - i), x + i);
}
#endif

ExpFn pick_exp() {
#ifdef __x86_64__
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return exp_avx2;
#endif
  return exp_scalar;
}

// x[i] = exp(x[i]) for i < n, through the exp this CPU runs.
void exp_inplace(double* x, index_t n) {
  static const ExpFn fn = pick_exp();
  fn(x, n);
}

}  // namespace

TileEvaluator::TileEvaluator(const KernelMatrix& km)
    : km_(km),
      arow_(static_cast<size_t>(kTileRows * km.dim())),
      rnorm_(static_cast<size_t>(kTileRows)),
      bcol_(static_cast<size_t>(km.dim() * kTileCols)),
      expv_(static_cast<size_t>(kTileRows)) {
  rowpos_.reserve(static_cast<size_t>(kTileRows));
}

void TileEvaluator::set_rows(std::span<const index_t> rows, index_t i0,
                             index_t mi) {
  // An mi-by-d row panel, so the Gram tile is one plain gemm_raw.
  const Matrix& x = km_.points();
  const index_t d = x.rows();
  for (index_t k = 0; k < d; ++k)
    for (index_t i = 0; i < mi; ++i)
      arow_[static_cast<size_t>(i + k * mi)] = x(k, rows[i0 + i]);
  rowpos_.clear();
  for (index_t i = 0; i < mi; ++i) {
    rnorm_[static_cast<size_t>(i)] = km_.sqnorm(rows[i0 + i]);
    rowpos_.emplace_back(rows[i0 + i], i);
  }
  std::sort(rowpos_.begin(), rowpos_.end());
  mi_ = mi;
}

void TileEvaluator::eval(std::span<const index_t> cols, index_t j0,
                         index_t nj, double* out, index_t ldo) {
  const Matrix& x = km_.points();
  const index_t d = x.rows();
  for (index_t j = 0; j < nj; ++j)
    std::copy_n(x.col(cols[j0 + j]), d, bcol_.data() + j * d);
  // Gram tile G = Xr^T Xc (mi x nj, rank-d update).
  la::gemm_raw(mi_, nj, d, 1.0, arow_.data(), mi_, bcol_.data(), d, 0.0,
               out, ldo);
  // A point paired with itself takes its cached squared norm as its Gram
  // entry, so its distance to itself is exactly 0. For d > 256 gemm_raw
  // sums in 256-deep chunks and the norms are sequential sums; their
  // last-bit difference left the Laplacian's K(i, i) 1e-6 below 1 at
  // d = 300..784 (unit-variance points, h = 1).
  const index_t lo = rowpos_.front().first, hi = rowpos_.back().first;
  for (index_t j = 0; j < nj; ++j) {
    const index_t c = cols[j0 + j];
    if (c < lo || c > hi) continue;
    auto it = std::lower_bound(rowpos_.begin(), rowpos_.end(),
                               std::pair<index_t, index_t>{c, 0});
    for (; it != rowpos_.end() && it->first == c; ++it)
      out[it->second + j * ldo] = rnorm_[static_cast<size_t>(it->second)];
  }

  // Map G to kernel values one column at a time. The kernel is a local
  // copy, so the entry loops need not reload it after each tile store.
  // Each step is a loop of its own so that it vectorizes: under
  // -ftrapping-math GCC if-converts gram_dist2's clamp only where no
  // trapping multiply follows it in the loop body.
  const Kernel k = km_.kernel();
  const index_t m = mi_;
  const double* rn = rnorm_.data();
  double* ev = expv_.data();
  for (index_t j = 0; j < nj; ++j) {
    const double cn = km_.sqnorm(cols[j0 + j]);
    double* g = out + j * ldo;
    if (k.type == KernelType::Polynomial) {
      // Kernel::polynomial_gram's product, one degree at a time.
      for (index_t i = 0; i < m; ++i) ev[i] = k.polynomial_base(g[i]);
      std::fill(g, g + m, 1.0);
      for (int p = 0; p < k.degree; ++p)
        for (index_t i = 0; i < m; ++i) g[i] *= ev[i];
      continue;
    }
    for (index_t i = 0; i < m; ++i) g[i] = gram_dist2(g[i], rn[i], cn);
    switch (k.type) {
      case KernelType::Gaussian:
        for (index_t i = 0; i < m; ++i) g[i] = k.gaussian_arg(g[i]);
        exp_inplace(g, m);
        break;
      case KernelType::Laplacian:
        for (index_t i = 0; i < m; ++i) g[i] = k.laplacian_arg(g[i]);
        exp_inplace(g, m);
        break;
      case KernelType::Matern32:
        for (index_t i = 0; i < m; ++i) {
          const double r = k.matern32_r(g[i]);
          g[i] = r;
          ev[i] = -r;
        }
        exp_inplace(ev, m);
        for (index_t i = 0; i < m; ++i) g[i] = (1.0 + g[i]) * ev[i];
        break;
      case KernelType::Polynomial:
        break;
    }
  }
}

}  // namespace fdks::kernel
