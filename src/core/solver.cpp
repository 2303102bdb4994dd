// FastDirectSolver driver: full-tree factorization (telescoped or the
// [36] subtree baseline, selected by SolverOptions::algo) plus the
// original-order solve wrappers.
#include "core/solver.hpp"

#include "ckpt/checkpoint.hpp"
#include "core/verify.hpp"
#include "obs/obs.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace fdks::core {

namespace {

// The root needs no P^ of its own (it has no parent coupling). When
// task parallelism is requested, open the parallel region here so the
// factorization's OpenMP tasks have a team to run on.
void run_factorize(FactorTree& ft, index_t root, bool parallel_tree) {
  if (ft.options().levelwise) {
    ft.factorize_subtree_levelwise(root, /*compute_phat=*/false);
  } else if (parallel_tree) {
#ifdef _OPENMP
#pragma omp parallel
#pragma omp single
#endif
    ft.factorize_subtree(root, /*compute_phat=*/false);
  } else {
    ft.factorize_subtree(root, /*compute_phat=*/false);
  }
}

/// Checkpoint-aware factorization (scope "seq"): resume from a valid
/// checkpoint when one matches (the fingerprint guards the points,
/// kernel, config, options and lambda), otherwise factorize and persist.
void run_factorize_ckpt(FactorTree& ft) {
  const index_t roots[] = {ft.hmatrix().tree().root()};
  ckpt::load_or_factorize(ft, roots, "factors_seq.ckpt", "seq", [&] {
    run_factorize(ft, roots[0], ft.options().parallel_tree);
  });
}

}  // namespace

FastDirectSolver::FastDirectSolver(const HMatrix& h, SolverOptions opts)
    : ft_(h, opts) {
  obs::ScopedTimer t("factorize");
  run_factorize_ckpt(ft_);
  factor_seconds_ = t.stop();
  sealed_checksum_ = ft_.content_checksum();
}

void FastDirectSolver::refactorize(double lambda) {
  obs::ScopedTimer t("factorize");
  ft_.set_lambda(lambda);
  run_factorize_ckpt(ft_);
  factor_seconds_ = t.stop();
  sealed_checksum_ = ft_.content_checksum();
}

bool FastDirectSolver::verify_integrity() const {
  obs::add("verify.integrity_check");
  if (ft_.content_checksum() == sealed_checksum_) return true;
  obs::add("verify.integrity_fail");
  return false;
}

VerifyOutcome FastDirectSolver::solve_verified(std::span<const double> u,
                                               std::span<double> x,
                                               std::uint64_t solve_index,
                                               const CancelToken* cancel)
    const {
  solve(u, x, cancel);
  return certify_and_refine(*this, u, x, ft_.options().verify, solve_index,
                            cancel);
}

void FastDirectSolver::solve(la::ConstMatrixView u, la::MatrixView x,
                             const CancelToken* cancel) const {
  const HMatrix& h = ft_.hmatrix();
  check_solve_shapes(h.n(), u, x, "FastDirectSolver::solve");
  obs::ScopedTimer t("solve");
  to_tree_order(h, u, 0, x);
  ft_.solve_subtree(h.tree().root(), x, cancel);
  from_tree_order(h, x);
}

std::vector<double> FastDirectSolver::solve(std::span<const double> u,
                                            const CancelToken* cancel) const {
  std::vector<double> x(u.size());
  solve(u, x, cancel);
  return x;
}

Matrix FastDirectSolver::solve(const Matrix& u,
                               const CancelToken* cancel) const {
  Matrix x(u.rows(), u.cols());
  solve(u, x, cancel);
  return x;
}

SolveStatus FastDirectSolver::solve_checked(std::span<const double> u,
                                            std::span<double> x) const {
  // A non-finite right-hand side is reported without solving.
  if (all_finite(u))
    solve(u, x);
  else
    obs::add("guardrail.nonfinite_rhs");
  const VerifyPolicy& vp = ft_.options().verify;
  return finish_solve(solver_ops(*this, vp), vp, /*certify=*/false,
                      factor_status(), SolveCode::Ok, 0, la::column_view(u),
                      la::column_view(x));
}

size_t FastDirectSolver::factor_bytes() const {
  return ft_.subtree_bytes(ft_.hmatrix().tree().root());
}

}  // namespace fdks::core
