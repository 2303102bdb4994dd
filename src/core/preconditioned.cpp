#include "core/preconditioned.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "kernel/gsks.hpp"
#include "la/blas1.hpp"

namespace fdks::core {

void exact_apply(const askit::HMatrix& h, double lambda,
                 std::span<const double> w, std::span<double> y) {
  if (w.size() != static_cast<size_t>(h.n()) || y.size() != w.size())
    throw std::invalid_argument("exact_apply: size mismatch");
  // The HMatrix's kernel-matrix view lives in tree order; permute in,
  // run one fused full-matrix sweep, permute out.
  const std::vector<double> wt = h.to_tree_order(w);
  std::vector<double> yt(wt.size(), 0.0);
  std::vector<la::index_t> all(static_cast<size_t>(h.n()));
  std::iota(all.begin(), all.end(), la::index_t{0});
  kernel::gsks_apply(h.km(), all, all, wt, yt);
  if (lambda != 0.0)
    for (size_t i = 0; i < yt.size(); ++i) yt[i] += lambda * wt[i];
  const std::vector<double> yo = h.from_tree_order(yt);
  std::copy(yo.begin(), yo.end(), y.begin());
}

namespace {

double residual_of(const askit::HMatrix& h, double lambda,
                   std::span<const double> x, std::span<const double> u) {
  std::vector<double> ax(u.size());
  exact_apply(h, lambda, x, ax);
  for (size_t i = 0; i < ax.size(); ++i) ax[i] = u[i] - ax[i];
  const double un = la::nrm2(u);
  return un > 0.0 ? la::nrm2(ax) / un : 0.0;
}

}  // namespace

ExactSolveResult solve_exact_preconditioned(const askit::HMatrix& h,
                                            const FastDirectSolver& m,
                                            std::span<const double> u,
                                            iter::GmresOptions opts) {
  const double lambda = m.lambda();
  ExactSolveResult out;
  // Right preconditioning: GMRES solves (A M^-1) y = u and returns
  // x = M^-1 y. The GMRES residual is the residual of the original
  // system, so the recorded history is directly meaningful.
  opts.right_precond = [&m](std::span<const double> z, std::span<double> y) {
    m.solve(z, y);
  };
  out.gmres = iter::gmres(
      h.n(),
      [&](std::span<const double> w, std::span<double> y) {
        exact_apply(h, lambda, w, y);
      },
      u, opts);
  out.x = out.gmres.x;
  out.exact_residual = residual_of(h, lambda, out.x, u);
  return out;
}

ExactSolveResult solve_exact_unpreconditioned(const askit::HMatrix& h,
                                              double lambda,
                                              std::span<const double> u,
                                              iter::GmresOptions opts) {
  ExactSolveResult out;
  out.gmres = iter::gmres(
      h.n(),
      [&](std::span<const double> w, std::span<double> y) {
        exact_apply(h, lambda, w, y);
      },
      u, opts);
  out.x = out.gmres.x;
  out.exact_residual = residual_of(h, lambda, out.x, u);
  return out;
}

}  // namespace fdks::core
