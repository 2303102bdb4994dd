// Scalar references for the bitwise contract of la/kernels.hpp: the
// loops la::gemm_raw, la::lu_factor and the block la::lu_solve ran
// before their kernels were register-blocked and ISA-dispatched, kept
// here verbatim in arithmetic. Every instantiation of the kernels must
// reproduce them bit for bit, NaN propagation included.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "la/lu.hpp"
#include "la/matrix.hpp"

namespace fdks::la::reference {

namespace detail {

constexpr index_t kMc = 128;
constexpr index_t kKc = 256;
constexpr index_t kNc = 512;
constexpr index_t kMr = 4;
constexpr index_t kNr = 8;
constexpr index_t kNarrowMax = 4;

inline void pack_a(const double* a, index_t lda, index_t mc, index_t kc,
                   double* dst) {
  for (index_t i0 = 0; i0 < mc; i0 += kMr) {
    const index_t mr = std::min(kMr, mc - i0);
    for (index_t p = 0; p < kc; ++p) {
      for (index_t i = 0; i < mr; ++i) *dst++ = a[(i0 + i) + p * lda];
      for (index_t i = mr; i < kMr; ++i) *dst++ = 0.0;
    }
  }
}

inline void pack_b(const double* b, index_t ldb, index_t kc, index_t nc,
                   double* dst) {
  for (index_t j0 = 0; j0 < nc; j0 += kNr) {
    const index_t nr = std::min(kNr, nc - j0);
    for (index_t p = 0; p < kc; ++p) {
      for (index_t j = 0; j < nr; ++j) *dst++ = b[p + (j0 + j) * ldb];
      for (index_t j = nr; j < kNr; ++j) *dst++ = 0.0;
    }
  }
}

inline void micro_kernel(index_t kc, const double* ap, const double* bp,
                         double* c, index_t ldc, index_t mr, index_t nr,
                         double alpha) {
  double acc[kMr * kNr] = {0.0};
  for (index_t p = 0; p < kc; ++p) {
    const double* arow = ap + p * kMr;
    const double* brow = bp + p * kNr;
    for (index_t j = 0; j < kNr; ++j) {
      const double bj = brow[j];
      for (index_t i = 0; i < kMr; ++i) acc[i + j * kMr] += arow[i] * bj;
    }
  }
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i)
      c[i + j * ldc] += alpha * acc[i + j * kMr];
}

inline void narrow_kernel(index_t m, index_t n, index_t k, double alpha,
                          const double* a, index_t lda, const double* b,
                          index_t ldb, double* c, index_t ldc) {
  double acc[kMc * kNarrowMax] = {0.0};
  for (index_t ic = 0; ic < m; ic += kMc) {
    const index_t mc = std::min(kMc, m - ic);
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);
      std::fill(acc, acc + kMc * n, 0.0);
      for (index_t p = pc; p < pc + kc; ++p) {
        const double* acol = a + ic + p * lda;
        for (index_t j = 0; j < n; ++j) {
          const double bj = b[p + j * ldb];
          double* accj = acc + j * kMc;
          for (index_t i = 0; i < mc; ++i) accj[i] += acol[i] * bj;
        }
      }
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < mc; ++i)
          c[(ic + i) + j * ldc] += alpha * acc[i + j * kMc];
    }
  }
}

}  // namespace detail

/// la::gemm_raw's arithmetic: C = beta C + alpha A B.
inline void gemm_raw(index_t m, index_t n, index_t k, double alpha,
                     const double* a, index_t lda, const double* b,
                     index_t ldb, double beta, double* c, index_t ldc) {
  using namespace detail;
  if (beta != 1.0) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        c[i + j * ldc] = (beta == 0.0) ? 0.0 : beta * c[i + j * ldc];
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  if (m * n * k <= 32 * 32 * 32) {
    if (m == 1) {
      for (index_t j = 0; j < n; ++j) {
        double s = c[j * ldc];
        for (index_t p = 0; p < k; ++p) {
          const double bpj = alpha * b[p + j * ldb];
          if (bpj != 0.0) s += a[p * lda] * bpj;
        }
        c[j * ldc] = s;
      }
      return;
    }
    for (index_t j = 0; j < n; ++j)
      for (index_t p = 0; p < k; ++p) {
        const double bpj = alpha * b[p + j * ldb];
        if (bpj == 0.0) continue;
        const double* acol = a + p * lda;
        double* ccol = c + j * ldc;
        for (index_t i = 0; i < m; ++i) ccol[i] += acol[i] * bpj;
      }
    return;
  }
  if (n <= kNarrowMax) {
    narrow_kernel(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }
  std::vector<double> apack(static_cast<size_t>(kMc * kKc));
  std::vector<double> bpack(static_cast<size_t>(kKc * kNc));
  for (index_t jc = 0; jc < n; jc += kNc) {
    const index_t nc = std::min(kNc, n - jc);
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);
      pack_b(b + pc + jc * ldb, ldb, kc, nc, bpack.data());
      for (index_t ic = 0; ic < m; ic += kMc) {
        const index_t mc = std::min(kMc, m - ic);
        pack_a(a + ic + pc * lda, lda, mc, kc, apack.data());
        for (index_t jr = 0; jr < nc; jr += kNr) {
          const index_t nr = std::min(kNr, nc - jr);
          const double* bp = bpack.data() + (jr / kNr) * kc * kNr;
          for (index_t ir = 0; ir < mc; ir += kMr) {
            const index_t mr = std::min(kMr, mc - ir);
            const double* ap = apack.data() + (ir / kMr) * kc * kMr;
            micro_kernel(kc, ap, bp, c + (ic + ir) + (jc + jr) * ldc, ldc,
                         mr, nr, alpha);
          }
        }
      }
    }
  }
}

/// la::lu_factor's arithmetic.
inline LuFactor lu_factor(const Matrix& a) {
  constexpr index_t kLuBlock = 64;
  const index_t n = a.rows();
  LuFactor f;
  f.lu = a;
  f.piv.resize(static_cast<size_t>(n));
  f.min_pivot = std::numeric_limits<double>::infinity();
  f.max_pivot = 0.0;
  Matrix& lu = f.lu;
  auto panel = [&](index_t k0, index_t k1) {
    for (index_t k = k0; k < k1; ++k) {
      index_t p = k;
      double pmax = std::abs(lu(k, k));
      for (index_t i = k + 1; i < n; ++i) {
        const double v = std::abs(lu(i, k));
        if (v > pmax) {
          pmax = v;
          p = i;
        }
      }
      f.piv[static_cast<size_t>(k)] = p;
      if (p != k)
        for (index_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(p, j));
      const double pivot = lu(k, k);
      f.min_pivot = std::min(f.min_pivot, std::abs(pivot));
      f.max_pivot = std::max(f.max_pivot, std::abs(pivot));
      if (pivot == 0.0) {
        f.singular = true;
        continue;
      }
      const double inv = 1.0 / pivot;
      for (index_t i = k + 1; i < n; ++i) lu(i, k) *= inv;
      for (index_t j = k + 1; j < k1; ++j) {
        const double ukj = lu(k, j);
        if (ukj == 0.0) continue;
        double* col = lu.col(j);
        const double* lcol = lu.col(k);
        for (index_t i = k + 1; i < n; ++i) col[i] -= lcol[i] * ukj;
      }
    }
  };
  if (n <= 2 * kLuBlock) {
    panel(0, n);
  } else {
    for (index_t k0 = 0; k0 < n; k0 += kLuBlock) {
      const index_t k1 = std::min(n, k0 + kLuBlock);
      panel(k0, k1);
      if (k1 == n) break;
      for (index_t j = k1; j < n; ++j) {  // trsm_unit_lower
        double* col = lu.col(j);
        for (index_t k = k0; k < k1; ++k) {
          const double bk = col[k];
          if (bk == 0.0) continue;
          const double* lcol = lu.col(k);
          for (index_t i = k + 1; i < k1; ++i) col[i] -= lcol[i] * bk;
        }
      }
      gemm_raw(n - k1, n - k1, k1 - k0, -1.0, lu.col(k0) + k1, lu.ld(),
               lu.col(k1) + k0, lu.ld(), 1.0, lu.col(k1) + k1, lu.ld());
    }
  }
  if (n == 0) f.min_pivot = 0.0;
  return f;
}

/// The block la::lu_solve's arithmetic (B > 1 columns), in place on b.
inline void lu_solve(const LuFactor& f, MatrixView b) {
  const index_t n = f.n();
  const index_t nrhs = b.cols();
  const Matrix& lu = f.lu;
  for (index_t k = 0; k < n; ++k) {
    const index_t p = f.piv[static_cast<size_t>(k)];
    if (p == k) continue;
    for (index_t j = 0; j < nrhs; ++j) std::swap(b(k, j), b(p, j));
  }
  for (index_t k = 0; k < n; ++k) {
    const double* col = lu.col(k);
    for (index_t j = 0; j < nrhs; ++j) {
      const double bk = b(k, j);
      if (bk == 0.0) continue;
      double* bj = b.col(j);
      for (index_t i = k + 1; i < n; ++i) bj[i] -= col[i] * bk;
    }
  }
  for (index_t k = n - 1; k >= 0; --k) {
    const double* col = lu.col(k);
    const double inv = 1.0 / lu(k, k);
    for (index_t j = 0; j < nrhs; ++j) {
      b(k, j) *= inv;
      const double bk = b(k, j);
      if (bk == 0.0) continue;
      double* bj = b.col(j);
      for (index_t i = 0; i < k; ++i) bj[i] -= col[i] * bk;
    }
  }
}

}  // namespace fdks::la::reference
