// Structured factorization/solve outcomes (robustness layer).
//
// The paper's §III warns that the direct factorization degrades when
// off-diagonal ranks grow or the regularized diagonal blocks become
// ill-conditioned. Instead of throw-or-garbage, the solvers report a
// structured status:
//
//   FactorStatus — what happened during factorization: clean, completed
//     via the automatic diagonal-shift retry (graceful degradation: the
//     effective lambda was bumped on near-singular leaf blocks),
//     near-singular factors left in place, or non-finite input detected.
//
//   SolveStatus — what happened during a guarded solve: clean, degraded
//     (shifted factors), escalated (the certification ladder demoted the
//     factor to a GMRES preconditioner), iterative breakdown/stagnation,
//     non-convergence, or non-finite data.
//
// Statuses with ok() == true mean "a usable solution was produced",
// possibly via a recorded degradation path; callers that need exact
// λI + K~ solves must check degraded() as well.
#pragma once

#include <cmath>
#include <span>
#include <string>

#include "la/matrix.hpp"

namespace fdks::core {

using la::index_t;

enum class FactorCode {
  Ok,               ///< Clean factorization.
  ShiftedDiagonal,  ///< Completed after bumping lambda on >= 1 leaf.
  NearSingular,     ///< Factors kept but conditioning below threshold.
  NonFinite,        ///< NaN/Inf encountered in blocks being factorized.
};

// [[nodiscard]] on the type: any function returning a status by value
// is must-check (lint/strict-build contract; discard explicitly with a
// commented `(void)` cast when a call site genuinely doesn't care).
struct [[nodiscard]] FactorStatus {
  FactorCode code = FactorCode::Ok;
  double lambda_requested = 0.0;
  /// Largest per-node effective lambda actually factorized
  /// (lambda_requested + the biggest diagonal shift applied).
  double lambda_effective = 0.0;
  index_t shifted_nodes = 0;    ///< Leaves factored with a bumped shift.
  index_t shift_retries = 0;    ///< Total re-factorization attempts.
  index_t nonfinite_nodes = 0;  ///< Nodes whose blocks held NaN/Inf.
  index_t flagged_nodes = 0;    ///< StabilityReport detector count.

  [[nodiscard]] bool ok() const {
    return code == FactorCode::Ok || code == FactorCode::ShiftedDiagonal;
  }
  [[nodiscard]] bool degraded() const { return code != FactorCode::Ok; }
  [[nodiscard]] std::string message() const;
};

enum class SolveCode {
  Ok,               ///< Clean solve.
  ShiftedDiagonal,  ///< Solved with diagonal-shifted factors.
  Escalated,        ///< Ladder escalation (factor as GMRES preconditioner).
  NotConverged,     ///< Iterative phase missed its tolerance.
  Breakdown,        ///< GMRES Arnoldi breakdown before convergence.
  Stagnated,        ///< GMRES stagnation detector tripped.
  NonFinite,        ///< NaN/Inf in the right-hand side or the solution.
};

struct [[nodiscard]] SolveStatus {
  SolveCode code = SolveCode::Ok;
  double residual = -1.0;       ///< Relative residual when computed.
  int gmres_iterations = 0;     ///< Krylov iterations spent (all phases).
  int escalations = 0;          ///< Auto-escalation retries used.
  double lambda_effective = 0.0;
  index_t shifted_nodes = 0;
  std::string detail;           ///< Free-form context for diagnostics.

  [[nodiscard]] bool ok() const {
    return code == SolveCode::Ok || code == SolveCode::ShiftedDiagonal ||
           code == SolveCode::Escalated;
  }
  [[nodiscard]] bool degraded() const { return code != SolveCode::Ok; }
  [[nodiscard]] std::string message() const;
};

const char* to_string(FactorCode c);
const char* to_string(SolveCode c);

// ---------------------------------------------------------------------
// A posteriori certification policy (PR 8).
//
// A direct factor is only as good as the blocks it was built from: a
// loose skeleton tolerance, an aggressive auto-shift, or silent bit rot
// in a long-lived cache all produce answers that LOOK clean. The
// VerifyPolicy makes the solver measure the relative residual
// ‖(λI+K)x − b‖ / ‖b‖ after the fact and walk an escalation ladder
// (iterative refinement, then factor-preconditioned GMRES) until the
// answer is certified or declared failed.

enum class VerifyMode {
  Off,     ///< Never verify (legacy behavior; residual = -1).
  Sample,  ///< Verify 1-in-`sample_every` solves (cheap steady-state).
  Always,  ///< Verify every solve.
};

struct VerifyPolicy {
  VerifyMode mode = VerifyMode::Off;
  /// Sampling period for VerifyMode::Sample: solve k is verified iff
  /// k % sample_every == 0 (the first solve is always in-sample).
  int sample_every = 16;
  /// Certification target for the relative residual.
  double target_residual = 1e-6;

  /// Which operator the residual is measured against. Factorized is
  /// the target-interpolation treecode apply() the factorization
  /// inverts — the right check for factor integrity (bit flips,
  /// marginal pivots, stale shifts). Treecode is the classic ASKIT
  /// source-skeleton apply_source(), an evaluation path independent of
  /// the factorization that differs by O(tau) — the right cross-check
  /// when the skeleton approximation itself is in question.
  enum class Operator { Factorized, Treecode };
  Operator op = Operator::Factorized;

  /// Escalation ladder rung 1: fixed-point iterative refinement
  /// x += F⁻¹(b − A·x), at most this many steps.
  int max_refine_steps = 3;
  /// Stagnation detector: a refinement step must shrink the residual
  /// by at least this factor (new < factor * old) to keep going.
  double min_step_improvement = 0.5;

  /// Escalation ladder rung 2: factor-preconditioned GMRES on A when
  /// refinement stagnates above target.
  bool escalate = true;
  int escalate_max_iters = 200;

  [[nodiscard]] bool enabled() const { return mode != VerifyMode::Off; }
};

/// Outcome of one certification pass (per solve, or per column of a
/// batched solve). `measured == false` means the policy skipped this
/// solve (sampling) and residual stays -1.
struct [[nodiscard]] VerifyOutcome {
  bool measured = false;
  bool certified = false;   ///< residual <= policy target (post-ladder).
  double residual = -1.0;   ///< Final certified relative residual.
  int refine_steps = 0;     ///< Refinement iterations spent.
  int escalations = 0;      ///< 1 when the GMRES rung ran.
};

/// Phase-boundary guard: true iff every entry is finite.
inline bool all_finite(std::span<const double> v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}
inline bool all_finite(la::ConstMatrixView m) {
  for (index_t j = 0; j < m.cols(); ++j)
    if (!all_finite(m.col_span(j))) return false;
  return true;
}

}  // namespace fdks::core
