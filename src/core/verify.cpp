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

/// The columns `cols` of m, gathered into one contiguous block.
Matrix select_cols(la::ConstMatrixView m, const std::vector<index_t>& cols) {
  Matrix out(m.rows(), static_cast<index_t>(cols.size()));
  for (size_t i = 0; i < cols.size(); ++i)
    std::copy(m.col(cols[i]), m.col(cols[i]) + m.rows(),
              out.col(static_cast<index_t>(i)));
  return out;
}

/// Measures columns `cols` (ascending) of x with ONE block apply:
/// r_j = b_j − A x_j and rel_j for every j in `cols`.
void measure_columns(const VerifyOps& ops, la::ConstMatrixView b,
                     la::ConstMatrixView x, const std::vector<index_t>& cols,
                     Matrix& r, std::vector<double>& rel) {
  const index_t n = b.rows();
  const auto nc = static_cast<index_t>(cols.size());
  if (nc == 0) return;
  if (nc == x.cols()) {  // Every column: apply straight into r.
    ops.apply(x, r);
  } else {
    Matrix rf = select_cols(x, cols);
    ops.apply(rf, rf);
    for (index_t i = 0; i < nc; ++i)
      std::copy(rf.col(i), rf.col(i) + n, r.col(cols[static_cast<size_t>(i)]));
  }
  for (const index_t j : cols)
    rel[static_cast<size_t>(j)] =
        finish_residual(b.col_span(j), la::MatrixView(r).col_span(j));
}

std::vector<index_t> all_columns(index_t cols) {
  std::vector<index_t> all(static_cast<size_t>(cols));
  std::iota(all.begin(), all.end(), index_t{0});
  return all;
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
  go.right_precond = [&ops](std::span<const double> in,
                            std::span<double> out) {
    ops.solve(la::column_view(in), la::column_view(out));
  };
  const iter::LinOp a = [&ops](std::span<const double> in,
                              std::span<double> out) {
    ops.apply(la::column_view(in), la::column_view(out));
  };
  const iter::GmresResult gr =
      iter::gmres(static_cast<index_t>(b.size()), a, b, go);
  // Trust a measured residual, not the Givens estimate: the candidate
  // only replaces the incumbent when it is verifiably better.
  Matrix ax(static_cast<index_t>(b.size()), 1);
  ops.apply(la::column_view(std::span<const double>(gr.x)), ax);
  const double cand = finish_residual(b, la::MatrixView(ax).col_span(0));
  if (std::isfinite(cand) && (!std::isfinite(rel) || cand < rel)) {
    std::copy(gr.x.begin(), gr.x.end(), x.begin());
    return cand;
  }
  return rel;
}

}  // namespace

std::vector<VerifyOutcome> certify_and_refine_block_ops(
    const VerifyOps& ops, la::ConstMatrixView b, la::MatrixView x,
    const VerifyPolicy& p, const CancelToken* cancel) {
  const index_t n = b.rows();
  const index_t cols = b.cols();
  std::vector<VerifyOutcome> outs(static_cast<size_t>(cols));
  const auto t0 = std::chrono::steady_clock::now();

  // Rung 0: measure the whole batch with one block apply; the failing
  // set is what the ladder works on.
  Matrix r(n, cols);
  std::vector<double> rel(static_cast<size_t>(cols), 0.0);
  measure_columns(ops, b, x, all_columns(cols), r, rel);
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
  for (int step = 0; step < p.max_refine_steps && !failing.empty();
       ++step) {
    if (cancel) cancel->check("core::certify_and_refine");
    Matrix dxf(n, static_cast<index_t>(failing.size()));
    ops.solve(r.select_cols(failing), dxf);
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
    if (cancel) cancel->check("core::certify_and_refine");
    rel[static_cast<size_t>(j)] = escalate_rung(
        ops, p, b.col_span(j), x.col_span(j), rel[static_cast<size_t>(j)],
        cancel);
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

SolveStatus finish_solve(const VerifyOps& ops, const VerifyPolicy& p,
                         bool certify, const FactorStatus& fs,
                         SolveCode reduced, int gmres_iterations,
                         la::ConstMatrixView u, la::MatrixView x,
                         const CancelToken* cancel) {
  SolveStatus st;
  st.lambda_effective = fs.lambda_effective;
  st.shifted_nodes = fs.shifted_nodes;
  st.gmres_iterations = gmres_iterations;
  if (!all_finite(u)) {
    st.code = SolveCode::NonFinite;
    st.detail = "right-hand side contains NaN/Inf";
    return st;
  }
  if (!all_finite(x)) {
    st.code = SolveCode::NonFinite;
    st.detail = fs.code == FactorCode::NonFinite
                    ? "solution contains NaN/Inf (factorization was "
                      "already non-finite)"
                    : "solution contains NaN/Inf";
    return st;
  }
  bool uncertified = false;
  st.residual = 0.0;
  if (certify) {
    for (const VerifyOutcome& vo :
         certify_and_refine_block_ops(ops, u, x, p, cancel)) {
      st.residual = std::max(st.residual, vo.residual);
      uncertified = uncertified || !vo.certified;
      st.escalations += vo.escalations;
    }
  } else {
    Matrix r(u.rows(), u.cols());
    std::vector<double> rel(static_cast<size_t>(u.cols()), 0.0);
    measure_columns(ops, u, x, all_columns(u.cols()), r, rel);
    for (const double v : rel) st.residual = std::max(st.residual, v);
  }
  if (uncertified) {
    st.code = SolveCode::NotConverged;
    st.detail = "certified residual misses the verify target after the "
                "escalation ladder";
  } else if (st.escalations > 0) {
    st.code = SolveCode::Escalated;
  } else if (reduced != SolveCode::Ok) {
    st.code = reduced;
    st.detail = "reduced-system GMRES did not converge";
  } else if (fs.code == FactorCode::ShiftedDiagonal) {
    st.code = SolveCode::ShiftedDiagonal;
  }
  if (ops.emit_obs && st.escalations > 0)
    obs::add("guardrail.escalations", st.escalations);
  return st;
}

VerifyOps solver_ops(const FastDirectSolver& s, const VerifyPolicy& p,
                     const CancelToken* cancel) {
  VerifyOps ops;
  ops.apply =
      certification_operator(s.factor_tree().hmatrix(), p.op, s.lambda());
  ops.solve = [&s, cancel](la::ConstMatrixView in, la::MatrixView y) {
    s.solve(in, y, cancel);
  };
  return ops;
}

VerifyOutcome certify_and_refine(const FastDirectSolver& s,
                                 std::span<const double> b,
                                 std::span<double> x, const VerifyPolicy& p,
                                 std::uint64_t solve_index,
                                 const CancelToken* cancel) {
  if (!should_verify(p, solve_index)) return {};
  return certify_and_refine_block_ops(solver_ops(s, p, cancel),
                                      la::column_view(b), la::column_view(x),
                                      p, cancel)
      .front();
}

std::vector<VerifyOutcome> certify_and_refine_block(
    const FastDirectSolver& s, la::ConstMatrixView b, la::MatrixView x,
    const VerifyPolicy& p, std::uint64_t solve_index,
    const CancelToken* cancel) {
  if (!should_verify(p, solve_index))
    return std::vector<VerifyOutcome>(static_cast<size_t>(b.cols()));
  return certify_and_refine_block_ops(solver_ops(s, p, cancel), b, x, p,
                                      cancel);
}

}  // namespace fdks::core
