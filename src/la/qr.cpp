#include "la/qr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "la/kernels.hpp"

namespace fdks::la {

namespace {

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

// Both factorizations run the QR family of la/kernels.hpp.
QrFactor run_qr(const Matrix& a, bool pivot, double tol, index_t max_rank) {
  QrFactor f;
  f.qr = a;
  const index_t m = a.rows();
  const index_t n = a.cols();
  index_t kmax = std::min(m, n);
  if (max_rank > 0) kmax = std::min(kmax, max_rank);
  f.tau.assign(static_cast<size_t>(std::min(m, n)), 0.0);
  f.jpvt.resize(static_cast<size_t>(n));
  detail::QrJob job;
  job.m = m;
  job.n = n;
  job.a = f.qr.data();
  job.lda = f.qr.ld();
  job.tau = f.tau.data();
  job.jpvt = f.jpvt.data();
  job.pivot = pivot;
  job.tol = tol;
  job.kmax = kmax;
  detail::kernels().qr(job);
  f.rank = job.steps;
  f.achieved_tol = job.achieved;
  return f;
}

}  // namespace

std::vector<double> QrFactor::rdiag() const {
  std::vector<double> d(static_cast<size_t>(rank));
  for (index_t k = 0; k < rank; ++k)
    d[static_cast<size_t>(k)] = std::abs(qr(k, k));
  return d;
}

QrFactor qr_factor(const Matrix& a) { return run_qr(a, false, 0.0, 0); }

QrFactor qr_factor_pivoted(const Matrix& a, double tol, index_t max_rank) {
  QrFactor f = run_qr(a, true, tol, max_rank);
  if (f.rank == 0 && std::min(a.rows(), a.cols()) > 0)
    f.rank = 1;  // Always keep one column.
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
  detail::kernels().r_solve(k, b.cols(), f.qr.data(), f.qr.ld(), b.data(),
                            b.ld());
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
