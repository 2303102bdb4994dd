// Scalar references for the bitwise contract of la/kernels.hpp: the
// loops la::gemm_raw, la::lu_factor, the block la::lu_solve, the two
// Householder QRs, la::qr_solve_r and the ID ran before their kernels
// were register-blocked or packed into panels and ISA-dispatched, kept
// here verbatim in arithmetic. Every instantiation of the kernels must
// reproduce them bit for bit, NaN propagation included. The pivoted QR
// also reports the ratio at which it stopped (QrFactor::achieved_tol),
// which the old loop did not; it is computed here from the same
// figures.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "la/id.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/qr.hpp"

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

namespace detail {

inline double make_reflector(Matrix& qr, index_t k) {
  const index_t m = qr.rows();
  double* col = qr.col(k);
  double alpha = col[k];
  double xnorm = 0.0;
  for (index_t i = k + 1; i < m; ++i) xnorm += col[i] * col[i];
  xnorm = std::sqrt(xnorm);
  if (xnorm == 0.0 && alpha >= 0.0) return 0.0;
  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const double tau = (beta - alpha) / beta;
  const double scale = 1.0 / (alpha - beta);
  for (index_t i = k + 1; i < m; ++i) col[i] *= scale;
  col[k] = beta;
  return tau;
}

template <int NC>
void apply_reflector_cols(Matrix& qr, index_t k, double tau, index_t j) {
  const index_t m = qr.rows();
  const double* v = qr.col(k);
  double* col[NC];
  double s[NC];
  for (int c = 0; c < NC; ++c) {
    col[c] = qr.col(j + c);
    s[c] = col[c][k];
  }
  for (index_t i = k + 1; i < m; ++i) {
    const double vi = v[i];
    for (int c = 0; c < NC; ++c) s[c] += vi * col[c][i];
  }
  for (int c = 0; c < NC; ++c) {
    s[c] *= tau;
    col[c][k] -= s[c];
    for (index_t i = k + 1; i < m; ++i) col[c][i] -= s[c] * v[i];
  }
}

inline void apply_reflector(Matrix& qr, index_t k, double tau, index_t j0) {
  if (tau == 0.0) return;
  constexpr index_t kCols = 8;
  const index_t n = qr.cols();
  index_t j = j0;
  for (; j + kCols <= n; j += kCols) apply_reflector_cols<kCols>(qr, k, tau, j);
  for (; j < n; ++j) apply_reflector_cols<1>(qr, k, tau, j);
}

}  // namespace detail

/// la::qr_factor's arithmetic.
inline QrFactor qr_factor(const Matrix& a) {
  QrFactor f;
  f.qr = a;
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t kmax = std::min(m, n);
  f.tau.assign(static_cast<size_t>(kmax), 0.0);
  f.jpvt.resize(static_cast<size_t>(n));
  std::iota(f.jpvt.begin(), f.jpvt.end(), index_t{0});
  for (index_t k = 0; k < kmax; ++k) {
    f.tau[static_cast<size_t>(k)] = detail::make_reflector(f.qr, k);
    detail::apply_reflector(f.qr, k, f.tau[static_cast<size_t>(k)], k + 1);
  }
  f.rank = kmax;
  return f;
}

/// la::qr_factor_pivoted's arithmetic.
inline QrFactor qr_factor_pivoted(const Matrix& a, double tol = 0.0,
                                  index_t max_rank = 0) {
  QrFactor f;
  f.qr = a;
  const index_t m = a.rows();
  const index_t n = a.cols();
  index_t kmax = std::min(m, n);
  if (max_rank > 0) kmax = std::min(kmax, max_rank);
  f.tau.assign(static_cast<size_t>(std::min(m, n)), 0.0);
  f.jpvt.resize(static_cast<size_t>(n));
  std::iota(f.jpvt.begin(), f.jpvt.end(), index_t{0});

  std::vector<double> cnorm2(static_cast<size_t>(n));
  std::vector<double> cnorm2_exact(static_cast<size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    double s = 0.0;
    const double* col = f.qr.col(j);
    for (index_t i = 0; i < m; ++i) s += col[i] * col[i];
    cnorm2[static_cast<size_t>(j)] = s;
    cnorm2_exact[static_cast<size_t>(j)] = s;
  }

  double r00 = 0.0;
  bool stopped = false;
  index_t k = 0;
  for (; k < kmax; ++k) {
    index_t p = k;
    double best = cnorm2[static_cast<size_t>(k)];
    for (index_t j = k + 1; j < n; ++j) {
      if (cnorm2[static_cast<size_t>(j)] > best) {
        best = cnorm2[static_cast<size_t>(j)];
        p = j;
      }
    }
    if (p != k) {
      for (index_t i = 0; i < m; ++i) std::swap(f.qr(i, k), f.qr(i, p));
      std::swap(f.jpvt[static_cast<size_t>(k)], f.jpvt[static_cast<size_t>(p)]);
      std::swap(cnorm2[static_cast<size_t>(k)], cnorm2[static_cast<size_t>(p)]);
      std::swap(cnorm2_exact[static_cast<size_t>(k)],
                cnorm2_exact[static_cast<size_t>(p)]);
    }

    f.tau[static_cast<size_t>(k)] = detail::make_reflector(f.qr, k);
    detail::apply_reflector(f.qr, k, f.tau[static_cast<size_t>(k)], k + 1);

    const double rkk = std::abs(f.qr(k, k));
    if (k == 0) r00 = rkk;
    if (tol > 0.0 && r00 > 0.0 && rkk <= tol * r00) {
      f.achieved_tol = rkk / r00;
      stopped = true;
      break;
    }

    for (index_t j = k + 1; j < n; ++j) {
      const double rkj = f.qr(k, j);
      double& c2 = cnorm2[static_cast<size_t>(j)];
      c2 -= rkj * rkj;
      if (c2 <= 1e-12 * cnorm2_exact[static_cast<size_t>(j)]) {
        double s = 0.0;
        const double* col = f.qr.col(j);
        for (index_t i = k + 1; i < m; ++i) s += col[i] * col[i];
        c2 = s;
        cnorm2_exact[static_cast<size_t>(j)] = s;
      }
      if (c2 < 0.0) c2 = 0.0;
    }
  }
  if (!stopped && k < n && r00 > 0.0) {
    double best = cnorm2[static_cast<size_t>(k)];
    for (index_t j = k + 1; j < n; ++j)
      if (cnorm2[static_cast<size_t>(j)] > best)
        best = cnorm2[static_cast<size_t>(j)];
    f.achieved_tol = std::sqrt(best) / r00;
  }
  f.rank = k;
  if (f.rank == 0 && kmax > 0) f.rank = 1;
  return f;
}

/// la::qr_solve_r's arithmetic.
inline void qr_solve_r(const QrFactor& f, Matrix& b) {
  const index_t k = f.rank;
  for (index_t j = 0; j < b.cols(); ++j) {
    double* col = b.col(j);
    for (index_t i = k - 1; i >= 0; --i) {
      double s = col[i];
      for (index_t p = i + 1; p < k; ++p) s -= f.qr(i, p) * col[p];
      col[i] = s / f.qr(i, i);
    }
  }
}

/// la::interpolative_decomposition's arithmetic.
inline IdResult interpolative_decomposition(const Matrix& a, double tol,
                                            index_t max_rank = 0) {
  IdResult out;
  const index_t n = a.cols();
  if (n == 0) return out;
  QrFactor f = reference::qr_factor_pivoted(a, tol, max_rank);
  const index_t s = f.rank;
  out.rank = s;
  out.rdiag = f.rdiag();
  out.achieved_tol = f.achieved_tol;
  out.compressed = s < n;
  out.skeleton.resize(static_cast<size_t>(s));
  for (index_t k = 0; k < s; ++k)
    out.skeleton[static_cast<size_t>(k)] = f.jpvt[static_cast<size_t>(k)];
  Matrix r12(s, n - s);
  for (index_t j = 0; j < n - s; ++j)
    for (index_t i = 0; i < s; ++i) r12(i, j) = f.qr(i, s + j);
  if (r12.cols() > 0) reference::qr_solve_r(f, r12);
  out.p.resize(s, n);
  for (index_t k = 0; k < s; ++k)
    out.p(k, f.jpvt[static_cast<size_t>(k)]) = 1.0;
  for (index_t j = 0; j < n - s; ++j) {
    const index_t orig = f.jpvt[static_cast<size_t>(s + j)];
    for (index_t i = 0; i < s; ++i) out.p(i, orig) = r12(i, j);
  }
  return out;
}

}  // namespace fdks::la::reference
