#include "la/lu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "la/blas1.hpp"
#include "la/gemm.hpp"
#include "la/kernels.hpp"

namespace fdks::la {

namespace {

// Unblocked right-looking LU on the trailing window [k0, n) x [k0, k1)
// of lu, with row swaps applied across the FULL matrix width and the
// rank-1 updates confined to columns [k0, k1). This is the panel kernel
// of the blocked factorization (and the whole factorization when the
// matrix is small).
void lu_panel(Matrix& lu, LuFactor& f, index_t k0, index_t k1) {
  const index_t n = lu.rows();
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
      continue;  // Leave the zero column; solves will see the flag.
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
}

// Rows per diagonal block of the triangular solves below. Only the
// diagonal blocks run scalar; the rest of each solve is the direct
// kernel, which applies every entry's terms in the same order.
constexpr index_t kTrsmBlock = 8;

// B <- L^-1 B for the n-by-n unit lower triangle of l and n-by-nrhs B.
// Entry (i, j) takes the terms k = 0 .. i-1 in ascending order; a term
// whose B(k, j) is zero is skipped.
void trsm_lower_unit(index_t n, const double* l, index_t ldl, double* b,
                     index_t ldb, index_t nrhs) {
  const detail::KernelSet& kern = detail::kernels();
  for (index_t k0 = 0; k0 < n; k0 += kTrsmBlock) {
    const index_t k1 = std::min(n, k0 + kTrsmBlock);
    for (index_t j = 0; j < nrhs; ++j) {
      double* bj = b + j * ldb;
      for (index_t k = k0; k < k1; ++k) {
        const double bk = bj[k];
        if (bk == 0.0) continue;
        const double* lk = l + k * ldl;
        for (index_t i = k + 1; i < k1; ++i) bj[i] -= lk[i] * bk;
      }
    }
    // Rows below the block: B(k1:n, :) += L(k1:n, k0:k1) * (-B(k0:k1, :)).
    if (k1 < n)
      kern.direct(n - k1, nrhs, k1 - k0, -1.0, l + k1 + k0 * ldl, ldl, b + k0,
                  1, ldb, b + k1, ldb);
  }
}

// B <- U^-1 B for the n-by-n upper triangle of u and n-by-nrhs B. Entry
// (i, j) takes the terms k = n-1 .. i+1 in descending order, skipping a
// zero B(k, j), and is then scaled by 1 / U(i, i).
void trsm_upper(index_t n, const double* u, index_t ldu, double* b,
                index_t ldb, index_t nrhs) {
  const detail::KernelSet& kern = detail::kernels();
  for (index_t k1 = n; k1 > 0;) {
    const index_t k0 = std::max<index_t>(0, k1 - kTrsmBlock);
    for (index_t k = k1 - 1; k >= k0; --k) {
      const double* uk = u + k * ldu;
      const double inv = 1.0 / uk[k];
      for (index_t j = 0; j < nrhs; ++j) {
        double* bj = b + j * ldb;
        bj[k] *= inv;
        const double bk = bj[k];
        if (bk == 0.0) continue;
        for (index_t i = k0; i < k; ++i) bj[i] -= uk[i] * bk;
      }
    }
    // Rows above the block, terms k1-1 down to k0 (negative strides):
    // B(0:k0, :) += U(0:k0, k0:k1) * (-B(k0:k1, :)).
    if (k0 > 0)
      kern.direct(k0, nrhs, k1 - k0, -1.0, u + (k1 - 1) * ldu, -ldu,
                  b + (k1 - 1), -1, ldb, b, ldb);
    k1 = k0;
  }
}

constexpr index_t kLuBlock = 64;

}  // namespace

LuFactor lu_factor(const Matrix& a) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("lu_factor: matrix must be square");
  const index_t n = a.rows();
  LuFactor f;
  f.lu = a;
  f.piv.resize(static_cast<size_t>(n));
  f.min_pivot = std::numeric_limits<double>::infinity();
  f.max_pivot = 0.0;
  Matrix& lu = f.lu;

  if (n <= 2 * kLuBlock) {
    lu_panel(lu, f, 0, n);
  } else {
    // Blocked right-looking LU: factor a panel, triangular-solve the
    // row block, GEMM-update the trailing matrix. The GEMM carries the
    // O(n^3) work through the cache-blocked kernel.
    for (index_t k0 = 0; k0 < n; k0 += kLuBlock) {
      const index_t k1 = std::min(n, k0 + kLuBlock);
      lu_panel(lu, f, k0, k1);
      if (k1 == n) break;
      // U12 = L11^-1 A12.
      trsm_lower_unit(k1 - k0, lu.col(k0) + k0, lu.ld(), lu.col(k1) + k0,
                      lu.ld(), n - k1);
      // Trailing update: A22 -= L21 * U12.
      gemm_raw(n - k1, n - k1, k1 - k0, -1.0, lu.col(k0) + k1, lu.ld(),
               lu.col(k1) + k0, lu.ld(), 1.0, lu.col(k1) + k1, lu.ld());
    }
  }
  if (n == 0) f.min_pivot = 0.0;
  return f;
}

void lu_solve(const LuFactor& f, std::span<double> b) {
  const index_t n = f.n();
  if (static_cast<index_t>(b.size()) != n)
    throw std::invalid_argument("lu_solve: rhs size mismatch");
  const Matrix& lu = f.lu;
  // Apply row interchanges.
  for (index_t k = 0; k < n; ++k) {
    const index_t p = f.piv[static_cast<size_t>(k)];
    if (p != k) std::swap(b[k], b[p]);
  }
  // Forward substitution with unit lower triangle.
  for (index_t k = 0; k < n; ++k) {
    const double bk = b[k];
    if (bk == 0.0) continue;
    const double* col = lu.col(k);
    for (index_t i = k + 1; i < n; ++i) b[i] -= col[i] * bk;
  }
  // Back substitution with upper triangle.
  for (index_t k = n - 1; k >= 0; --k) {
    b[k] /= lu(k, k);
    const double bk = b[k];
    if (bk == 0.0) continue;
    const double* col = lu.col(k);
    for (index_t i = 0; i < k; ++i) b[i] -= col[i] * bk;
  }
}

void lu_solve(const LuFactor& f, MatrixView b) {
  const index_t n = f.n();
  if (b.rows() != n)
    throw std::invalid_argument("lu_solve: block rhs shape mismatch");
  const index_t nrhs = b.cols();
  if (nrhs == 1) {  // Single column: the vector kernel already streams well.
    lu_solve(f, b.col_span(0));
    return;
  }
  // Row interchanges across all right-hand sides.
  for (index_t k = 0; k < n; ++k) {
    const index_t p = f.piv[static_cast<size_t>(k)];
    if (p == k) continue;
    for (index_t j = 0; j < nrhs; ++j) std::swap(b(k, j), b(p, j));
  }
  // Substitution sweeps: register tiles of B take many factor columns
  // at once (TRSM-style), so the factor streams once per tile row.
  trsm_lower_unit(n, f.lu.data(), f.lu.ld(), b.data(), b.ld(), nrhs);
  trsm_upper(n, f.lu.data(), f.lu.ld(), b.data(), b.ld(), nrhs);
}

void lu_solve(const LuFactor& f, Matrix& b) { lu_solve(f, MatrixView(b)); }

double norm1(const Matrix& a) {
  double best = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    double s = 0.0;
    const double* col = a.col(j);
    for (index_t i = 0; i < a.rows(); ++i) s += std::abs(col[i]);
    best = std::max(best, s);
  }
  return best;
}

namespace {

// Solve A^T x = b using the packed LU factor: A = P L U, so
// A^T = U^T L^T P^T; solve U^T y = b, L^T z = y, then x = P z.
void lu_solve_trans(const LuFactor& f, std::span<double> b) {
  const index_t n = f.n();
  const Matrix& lu = f.lu;
  // U^T is lower triangular: forward substitution.
  for (index_t k = 0; k < n; ++k) {
    double s = b[k];
    const double* col = lu.col(k);
    for (index_t i = 0; i < k; ++i) s -= col[i] * b[i];
    b[k] = s / lu(k, k);
  }
  // L^T is unit upper triangular: back substitution.
  for (index_t k = n - 1; k >= 0; --k) {
    double s = b[k];
    const double* col = lu.col(k);
    for (index_t i = k + 1; i < n; ++i) s -= col[i] * b[i];
    b[k] = s;
  }
  // Undo the pivoting (apply swaps in reverse).
  for (index_t k = n - 1; k >= 0; --k) {
    const index_t p = f.piv[static_cast<size_t>(k)];
    if (p != k) std::swap(b[k], b[p]);
  }
}

}  // namespace

double lu_rcond(const LuFactor& f, double anorm1) {
  const index_t n = f.n();
  if (n == 0 || f.singular || anorm1 == 0.0) return 0.0;
  // Hager's 1-norm estimator for ||A^-1||_1: power-like iteration on the
  // pair (A^-1, A^-T) with sign vectors. A handful of iterations is the
  // standard LAPACK budget.
  std::vector<double> x(static_cast<size_t>(n), 1.0 / static_cast<double>(n));
  double est = 0.0;
  for (int iter = 0; iter < 5; ++iter) {
    std::vector<double> y = x;
    lu_solve(f, y);
    double ynorm = 0.0;
    for (double v : y) ynorm += std::abs(v);
    est = std::max(est, ynorm);
    std::vector<double> xi(static_cast<size_t>(n));
    for (index_t i = 0; i < n; ++i) xi[i] = (y[i] >= 0.0) ? 1.0 : -1.0;
    lu_solve_trans(f, xi);
    const index_t j = iamax(xi);
    if (j < 0 || std::abs(xi[j]) <= dot(xi, x)) break;
    std::fill(x.begin(), x.end(), 0.0);
    x[static_cast<size_t>(j)] = 1.0;
  }
  if (est == 0.0) return 0.0;
  return 1.0 / (anorm1 * est);
}

}  // namespace fdks::la
