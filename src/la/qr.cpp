#include "la/qr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "la/blas1.hpp"

namespace fdks::la {

namespace {

// Generate the Householder reflector for column k of qr (rows k..m-1):
// v = [1; x(k+1:)/scale], H = I - tau v v^T zeroes x below the diagonal.
// Returns tau; the reflector tail is stored in place below the diagonal.
double make_reflector(Matrix& qr, index_t k) {
  const index_t m = qr.rows();
  double* col = qr.col(k);
  double alpha = col[k];
  double xnorm = 0.0;
  for (index_t i = k + 1; i < m; ++i) xnorm += col[i] * col[i];
  xnorm = std::sqrt(xnorm);
  if (xnorm == 0.0 && alpha >= 0.0) return 0.0;  // Already triangular.
  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const double tau = (beta - alpha) / beta;
  const double scale = 1.0 / (alpha - beta);
  for (index_t i = k + 1; i < m; ++i) col[i] *= scale;
  col[k] = beta;
  return tau;
}

// Apply reflector k (stored in qr) to the NC columns from j. The
// columns' dot products interleave, so their add chains overlap; each
// is still one sum in ascending row order, as for a lone column.
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

// Apply reflector k (stored in qr) to columns [j0, n) of qr.
void apply_reflector(Matrix& qr, index_t k, double tau, index_t j0) {
  if (tau == 0.0) return;
  constexpr index_t kCols = 8;
  const index_t n = qr.cols();
  index_t j = j0;
  for (; j + kCols <= n; j += kCols) apply_reflector_cols<kCols>(qr, k, tau, j);
  for (; j < n; ++j) apply_reflector_cols<1>(qr, k, tau, j);
}

// Apply reflector k of f to one external column (length m), optionally
// for Q instead of Q^T (reflectors are symmetric, order differs).
void apply_reflector_to(const QrFactor& f, index_t k, double* col) {
  const double tau = f.tau[static_cast<size_t>(k)];
  if (tau == 0.0) return;
  const index_t m = f.m();
  const double* v = f.qr.col(k);
  double s = col[k];
  for (index_t i = k + 1; i < m; ++i) s += v[i] * col[i];
  s *= tau;
  col[k] -= s;
  for (index_t i = k + 1; i < m; ++i) col[i] -= s * v[i];
}

}  // namespace

std::vector<double> QrFactor::rdiag() const {
  std::vector<double> d(static_cast<size_t>(rank));
  for (index_t k = 0; k < rank; ++k)
    d[static_cast<size_t>(k)] = std::abs(qr(k, k));
  return d;
}

QrFactor qr_factor(const Matrix& a) {
  QrFactor f;
  f.qr = a;
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t kmax = std::min(m, n);
  f.tau.assign(static_cast<size_t>(kmax), 0.0);
  f.jpvt.resize(static_cast<size_t>(n));
  std::iota(f.jpvt.begin(), f.jpvt.end(), index_t{0});
  for (index_t k = 0; k < kmax; ++k) {
    f.tau[static_cast<size_t>(k)] = make_reflector(f.qr, k);
    apply_reflector(f.qr, k, f.tau[static_cast<size_t>(k)], k + 1);
  }
  f.rank = kmax;
  return f;
}

QrFactor qr_factor_pivoted(const Matrix& a, double tol, index_t max_rank) {
  QrFactor f;
  f.qr = a;
  const index_t m = a.rows();
  const index_t n = a.cols();
  index_t kmax = std::min(m, n);
  if (max_rank > 0) kmax = std::min(kmax, max_rank);
  f.tau.assign(static_cast<size_t>(std::min(m, n)), 0.0);
  f.jpvt.resize(static_cast<size_t>(n));
  std::iota(f.jpvt.begin(), f.jpvt.end(), index_t{0});

  // Running squared column norms of the trailing submatrix, downdated
  // after each reflector (the classic GEQP3 strategy) with periodic
  // recomputation to fight cancellation.
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
  index_t k = 0;
  for (; k < kmax; ++k) {
    // Pick the trailing column with the largest residual norm.
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

    f.tau[static_cast<size_t>(k)] = make_reflector(f.qr, k);
    apply_reflector(f.qr, k, f.tau[static_cast<size_t>(k)], k + 1);

    const double rkk = std::abs(f.qr(k, k));
    if (k == 0) r00 = rkk;
    // Adaptive-rank stop: the R diagonal estimates singular values
    // (paper §II-A: sigma_{s+1}/sigma_1 < tau).
    if (tol > 0.0 && r00 > 0.0 && rkk <= tol * r00) {
      // This step's pivot is already below tolerance; do not count it.
      break;
    }

    // Downdate trailing column norms by the new row k of R.
    for (index_t j = k + 1; j < n; ++j) {
      const double rkj = f.qr(k, j);
      double& c2 = cnorm2[static_cast<size_t>(j)];
      c2 -= rkj * rkj;
      // Recompute when cancellation ate most of the value.
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
  f.rank = k;
  if (f.rank == 0 && kmax > 0) f.rank = 1;  // Always keep one column.
  return f;
}

void qr_apply_qt(const QrFactor& f, Matrix& b) {
  if (b.rows() != f.m())
    throw std::invalid_argument("qr_apply_qt: row mismatch");
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t k = 0; k < f.rank; ++k) apply_reflector_to(f, k, b.col(j));
}

void qr_apply_q(const QrFactor& f, Matrix& b) {
  if (b.rows() != f.m())
    throw std::invalid_argument("qr_apply_q: row mismatch");
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t k = f.rank - 1; k >= 0; --k)
      apply_reflector_to(f, k, b.col(j));
}

Matrix qr_form_q(const QrFactor& f) {
  Matrix q(f.m(), f.rank);
  for (index_t k = 0; k < f.rank; ++k) q(k, k) = 1.0;
  qr_apply_q(f, q);
  return q;
}

Matrix qr_form_r(const QrFactor& f) {
  Matrix r(f.rank, f.n());
  for (index_t j = 0; j < f.n(); ++j)
    for (index_t i = 0; i <= std::min(j, f.rank - 1); ++i)
      r(i, j) = f.qr(i, j);
  return r;
}

void qr_solve_r(const QrFactor& f, Matrix& b) {
  const index_t k = f.rank;
  if (b.rows() != k)
    throw std::invalid_argument("qr_solve_r: rhs rows must equal rank");
  for (index_t j = 0; j < b.cols(); ++j) {
    double* col = b.col(j);
    for (index_t i = k - 1; i >= 0; --i) {
      double s = col[i];
      for (index_t p = i + 1; p < k; ++p) s -= f.qr(i, p) * col[p];
      col[i] = s / f.qr(i, i);
    }
  }
}

std::vector<double> qr_least_squares(const Matrix& a,
                                     std::span<const double> b) {
  if (a.rows() < a.cols())
    throw std::invalid_argument("qr_least_squares: need m >= n");
  if (static_cast<index_t>(b.size()) != a.rows())
    throw std::invalid_argument("qr_least_squares: rhs size mismatch");
  QrFactor f = qr_factor(a);
  Matrix rhs(a.rows(), 1);
  for (index_t i = 0; i < a.rows(); ++i) rhs(i, 0) = b[i];
  qr_apply_qt(f, rhs);
  Matrix top = rhs.block(0, 0, f.rank, 1);
  qr_solve_r(f, top);
  std::vector<double> x(static_cast<size_t>(a.cols()), 0.0);
  for (index_t i = 0; i < f.rank; ++i) x[static_cast<size_t>(i)] = top(i, 0);
  return x;
}

}  // namespace fdks::la
