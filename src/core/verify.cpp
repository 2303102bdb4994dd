// Certification + escalation ladder implementation (see verify.hpp).
#include "core/verify.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <vector>

#include "la/blas1.hpp"
#include "obs/obs.hpp"

namespace fdks::core {

bool should_verify(const VerifyPolicy& p, std::uint64_t solve_index) {
  switch (p.mode) {
    case VerifyMode::Off:
      return false;
    case VerifyMode::Always:
      return true;
    case VerifyMode::Sample: {
      const std::uint64_t k =
          p.sample_every > 0 ? static_cast<std::uint64_t>(p.sample_every) : 1;
      return solve_index % k == 0;
    }
  }
  return false;
}

BlockOp certification_operator(const HMatrix& h, VerifyPolicy::Operator op,
                               double lambda) {
  if (op == VerifyPolicy::Operator::Treecode)
    return [&h, lambda](la::ConstMatrixView x, la::MatrixView y) {
      h.apply_source(x, y, lambda);
    };
  return [&h, lambda](la::ConstMatrixView x, la::MatrixView y) {
    h.apply(x, y, lambda);
  };
}

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// r holds A x on entry; turns it into b − A x and returns ‖r‖/‖b‖
/// (‖r‖ when b = 0).
double finish_residual(std::span<const double> b, std::span<double> r) {
  for (size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double bnorm = la::nrm2(b);
  const double rnorm = la::nrm2(r);
  return bnorm > 0.0 ? rnorm / bnorm : rnorm;
}

/// r = b − A x for one column; returns ‖r‖/‖b‖.
double residual_into(const VerifyOps& ops, std::span<const double> b,
                     std::span<const double> x, std::span<double> r) {
  ops.apply(la::column_view(x), la::column_view(r));
  return finish_residual(b, r);
}

/// Measures columns `cols` (ascending) of x with ONE block apply:
/// r_j = b_j − A x_j and rel_j for every j in `cols`.
void measure_columns(const VerifyOps& ops, const Matrix& b, const Matrix& x,
                     const std::vector<index_t>& cols, Matrix& r,
                     std::vector<double>& rel) {
  const index_t n = b.rows();
  const auto nc = static_cast<index_t>(cols.size());
  if (nc == 0) return;
  if (nc == x.cols()) {  // Every column: apply straight into r.
    ops.apply(x, r);
  } else {
    Matrix rf = x.select_cols(cols);
    ops.apply(rf, rf);
    for (index_t i = 0; i < nc; ++i)
      std::copy(rf.col(i), rf.col(i) + n, r.col(cols[static_cast<size_t>(i)]));
  }
  for (const index_t j : cols)
    rel[static_cast<size_t>(j)] = finish_residual(
        std::span<const double>(b.col(j), static_cast<size_t>(n)),
        std::span<double>(r.col(j), static_cast<size_t>(n)));
}

bool certified(double rel, const VerifyPolicy& p) {
  return std::isfinite(rel) && rel <= p.target_residual;
}

/// Rung 2: factor-preconditioned GMRES on the full certification
/// operator. The factor accelerates Krylov convergence; the reported
/// residual stays the true residual of A x = b (right preconditioning).
/// Adopts the GMRES iterate into x only when it measures better than
/// what the ladder already has. Returns the (possibly improved) rel.
double escalate_rung(const VerifyOps& ops, const VerifyPolicy& p,
                     std::span<const double> b, std::span<double> x,
                     double rel, const CancelToken* cancel) {
  if (ops.emit_obs) obs::add("refine.escalations");
  iter::GmresOptions go;
  go.max_iters = p.escalate_max_iters;
  go.restart = std::min(60, std::max(1, p.escalate_max_iters));
  go.rtol = p.target_residual;
  go.record_history = false;
  go.cancel = cancel;
  go.right_precond = ops.solve;
  const iter::LinOp a = [&ops](std::span<const double> in,
                              std::span<double> out) {
    ops.apply(la::column_view(in), la::column_view(out));
  };
  const iter::GmresResult gr =
      iter::gmres(static_cast<index_t>(b.size()), a, b, go);
  // Trust a measured residual, not the Givens estimate: the candidate
  // only replaces the incumbent when it is verifiably better.
  std::vector<double> scratch(b.size(), 0.0);
  const double cand = residual_into(ops, b, gr.x, scratch);
  if (std::isfinite(cand) && (!std::isfinite(rel) || cand < rel)) {
    std::copy(gr.x.begin(), gr.x.end(), x.begin());
    return cand;
  }
  return rel;
}

}  // namespace

VerifyOutcome certify_and_refine_ops(const VerifyOps& ops,
                                     std::span<const double> b,
                                     std::span<double> x,
                                     const VerifyPolicy& p,
                                     const CancelToken* cancel) {
  VerifyOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  out.measured = true;
  if (ops.emit_obs) obs::add("verify.checks");

  const size_t n = x.size();
  std::vector<double> r(n, 0.0);
  double rel = residual_into(ops, b, x, r);

  if (!certified(rel, p)) {
    if (ops.emit_obs) obs::add("verify.fail");
    // Rung 1: fixed-point refinement x += F⁻¹(b − A x). Contraction
    // factor ≈ ‖I − F⁻¹A‖, so each step multiplies the error by the
    // factor's approximation quality; stop on target or stagnation.
    std::vector<double> dx(n, 0.0);
    for (int step = 0; step < p.max_refine_steps; ++step) {
      if (!std::isfinite(rel)) break;  // NaN/Inf: refinement can't help.
      if (cancel) cancel->check("core::certify_and_refine");
      ops.solve(r, dx);
      const double prev = rel;
      for (size_t i = 0; i < n; ++i) x[i] += dx[i];
      rel = residual_into(ops, b, x, r);
      if (ops.emit_obs) obs::add("refine.steps");
      ++out.refine_steps;
      if (certified(rel, p)) break;
      if (!std::isfinite(rel) || rel >= p.min_step_improvement * prev) {
        if (!std::isfinite(rel) || rel > prev) {
          // The step made things worse: roll it back.
          for (size_t i = 0; i < n; ++i) x[i] -= dx[i];
          rel = residual_into(ops, b, x, r);
        }
        break;  // Stagnated above target.
      }
    }
    // Rung 2: factor-preconditioned GMRES.
    if (!certified(rel, p) && p.escalate) {
      if (cancel) cancel->check("core::certify_and_refine");
      rel = escalate_rung(ops, p, b, x, rel, cancel);
      ++out.escalations;
    }
  }

  out.residual = rel;
  out.certified = certified(rel, p);
  if (ops.emit_obs) {
    if (std::isfinite(rel)) obs::hist("verify.residual", rel);
    obs::hist("verify.seconds", elapsed_seconds(t0));
  }
  return out;
}

std::vector<VerifyOutcome> certify_and_refine_block_ops(
    const VerifyOps& ops, const Matrix& b, Matrix& x, const VerifyPolicy& p,
    const CancelToken* cancel) {
  const index_t n = b.rows();
  const index_t cols = b.cols();
  std::vector<VerifyOutcome> outs(static_cast<size_t>(cols));
  const auto t0 = std::chrono::steady_clock::now();

  const auto col_span = [n](const Matrix& m, index_t j) {
    return std::span<const double>(m.col(j), static_cast<size_t>(n));
  };
  const auto col_span_mut = [n](Matrix& m, index_t j) {
    return std::span<double>(m.col(j), static_cast<size_t>(n));
  };

  // Rung 0: measure the whole batch with one block apply; the failing
  // set is what the ladder works on.
  Matrix r(n, cols);
  std::vector<double> rel(static_cast<size_t>(cols), 0.0);
  std::vector<index_t> all(static_cast<size_t>(cols));
  std::iota(all.begin(), all.end(), index_t{0});
  measure_columns(ops, b, x, all, r, rel);
  std::vector<index_t> failing;
  for (index_t j = 0; j < cols; ++j) {
    outs[static_cast<size_t>(j)].measured = true;
    if (ops.emit_obs) obs::add("verify.checks");
    if (!certified(rel[static_cast<size_t>(j)], p)) {
      if (ops.emit_obs) obs::add("verify.fail");
      if (std::isfinite(rel[static_cast<size_t>(j)]))
        failing.push_back(j);  // NaN columns go straight past rung 1.
    }
  }

  // Rung 1, batched: one narrow blocked correction solve and one block
  // re-measure per step over the still-failing columns (per-column
  // blame, batched repair).
  std::vector<double> dxcol(static_cast<size_t>(n), 0.0);
  for (int step = 0; step < p.max_refine_steps && !failing.empty();
       ++step) {
    if (cancel) cancel->check("core::certify_and_refine_block");
    Matrix dxf(n, static_cast<index_t>(failing.size()));
    if (ops.solve_block) {
      dxf = ops.solve_block(r.select_cols(failing));
    } else {
      for (size_t i = 0; i < failing.size(); ++i) {
        ops.solve(col_span(r, failing[i]), dxcol);
        std::copy(dxcol.begin(), dxcol.end(),
                  dxf.col(static_cast<index_t>(i)));
      }
    }
    std::vector<double> prev(failing.size());
    for (size_t i = 0; i < failing.size(); ++i) {
      const double* dx = dxf.col(static_cast<index_t>(i));
      double* xj = x.col(failing[i]);
      for (index_t k = 0; k < n; ++k) xj[k] += dx[k];
      prev[i] = rel[static_cast<size_t>(failing[i])];
    }
    measure_columns(ops, b, x, failing, r, rel);
    std::vector<index_t> still, rolled_back;
    for (size_t i = 0; i < failing.size(); ++i) {
      const index_t j = failing[i];
      if (ops.emit_obs) obs::add("refine.steps");
      ++outs[static_cast<size_t>(j)].refine_steps;
      const double now = rel[static_cast<size_t>(j)];
      if (certified(now, p)) continue;
      if (!std::isfinite(now) || now >= p.min_step_improvement * prev[i]) {
        if (!std::isfinite(now) || now > prev[i]) {
          // The step made things worse: roll it back.
          const double* dx = dxf.col(static_cast<index_t>(i));
          double* xj = x.col(j);
          for (index_t k = 0; k < n; ++k) xj[k] -= dx[k];
          rolled_back.push_back(j);
        }
        continue;  // Stagnated: falls through to the GMRES rung below.
      }
      still.push_back(j);
    }
    measure_columns(ops, b, x, rolled_back, r, rel);
    failing.swap(still);
  }

  // Rung 2, per column: a Krylov space is per-RHS.
  for (index_t j = 0; j < cols; ++j) {
    if (certified(rel[static_cast<size_t>(j)], p) || !p.escalate) continue;
    if (cancel) cancel->check("core::certify_and_refine_block");
    rel[static_cast<size_t>(j)] =
        escalate_rung(ops, p, col_span(b, j), col_span_mut(x, j),
                      rel[static_cast<size_t>(j)], cancel);
    ++outs[static_cast<size_t>(j)].escalations;
  }

  for (index_t j = 0; j < cols; ++j) {
    VerifyOutcome& o = outs[static_cast<size_t>(j)];
    o.residual = rel[static_cast<size_t>(j)];
    o.certified = certified(o.residual, p);
    if (ops.emit_obs && std::isfinite(o.residual))
      obs::hist("verify.residual", o.residual);
  }
  if (ops.emit_obs) obs::hist("verify.seconds", elapsed_seconds(t0));
  return outs;
}

namespace {

VerifyOps solver_ops(const FastDirectSolver& s, const VerifyPolicy& p,
                     const CancelToken* cancel) {
  VerifyOps ops;
  ops.apply =
      certification_operator(s.factor_tree().hmatrix(), p.op, s.lambda());
  ops.solve = [&s, cancel](std::span<const double> in, std::span<double> y) {
    s.solve(in, y, cancel);
  };
  ops.solve_block = [&s, cancel](const Matrix& rhs) {
    return s.solve(rhs, cancel);
  };
  return ops;
}

}  // namespace

VerifyOutcome certify_and_refine(const FastDirectSolver& s,
                                 std::span<const double> b,
                                 std::span<double> x, const VerifyPolicy& p,
                                 std::uint64_t solve_index,
                                 const CancelToken* cancel) {
  if (!should_verify(p, solve_index)) return {};
  return certify_and_refine_ops(solver_ops(s, p, cancel), b, x, p, cancel);
}

std::vector<VerifyOutcome> certify_and_refine_block(
    const FastDirectSolver& s, const Matrix& b, Matrix& x,
    const VerifyPolicy& p, std::uint64_t solve_index,
    const CancelToken* cancel) {
  if (!should_verify(p, solve_index))
    return std::vector<VerifyOutcome>(static_cast<size_t>(b.cols()));
  return certify_and_refine_block_ops(solver_ops(s, p, cancel), b, x, p,
                                      cancel);
}

}  // namespace fdks::core
