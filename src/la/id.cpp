#include "la/id.hpp"

#include <cmath>
#include <stdexcept>

#include "la/gemm.hpp"
#include "la/norms.hpp"
#include "la/qr.hpp"

namespace fdks::la {

IdResult interpolative_decomposition(const Matrix& a, double tol,
                                     index_t max_rank) {
  IdResult out;
  const index_t n = a.cols();
  if (n == 0) return out;

  QrFactor f = qr_factor_pivoted(a, tol, max_rank);
  const index_t s = f.rank;
  out.rank = s;
  out.rdiag = f.rdiag();
  out.achieved_tol = f.achieved_tol;
  out.compressed = s < n;

  out.skeleton.resize(static_cast<size_t>(s));
  for (index_t k = 0; k < s; ++k)
    out.skeleton[static_cast<size_t>(k)] = f.jpvt[static_cast<size_t>(k)];

  // P in pivoted order is [I, R11^{-1} R12]; scatter back to the original
  // column order via jpvt.
  Matrix r12(s, n - s);
  for (index_t j = 0; j < n - s; ++j)
    for (index_t i = 0; i < s; ++i) r12(i, j) = f.qr(i, s + j);
  if (r12.cols() > 0) qr_solve_r(f, r12);

  out.p.resize(s, n);
  for (index_t k = 0; k < s; ++k)
    out.p(k, f.jpvt[static_cast<size_t>(k)]) = 1.0;
  for (index_t j = 0; j < n - s; ++j) {
    const index_t orig = f.jpvt[static_cast<size_t>(s + j)];
    for (index_t i = 0; i < s; ++i) out.p(i, orig) = r12(i, j);
  }
  return out;
}

double id_relative_error(const Matrix& a, const IdResult& id) {
  const double denom = norm_fro(a);
  if (denom == 0.0) return 0.0;
  Matrix askel = a.select_cols(id.skeleton);
  Matrix approx = matmul(askel, id.p);
  Matrix diff = add_scaled(a, -1.0, approx);
  return norm_fro(diff) / denom;
}

}  // namespace fdks::la
