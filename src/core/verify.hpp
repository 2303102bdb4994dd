// A posteriori answer certification and the escalation ladder (PR 8).
//
// A fast direct solver is approximate by construction: the skeletons
// carry an O(tau) error, near-singular leaves may have been repaired
// with a diagonal shift, and a long-lived cached factor can rot. This
// module turns "we hope the factor is good" into "every answer is
// certified or escalated":
//
//   rung 0 — measure: relative residual ‖(λI+K)x − b‖ / ‖b‖ through a
//            treecode matvec (VerifyPolicy::Operator selects the
//            factorized-form apply() or the factorization-independent
//            source-skeleton apply_source()).
//   rung 1 — iterative refinement: x += F⁻¹(b − A·x), the classic
//            approximate-factor refinement loop, until the target is
//            met or the contraction stagnates (refine.steps).
//   rung 2 — factor-preconditioned GMRES on A (refine.escalations),
//            reusing GmresOptions::right_precond.
//
// There is one ladder, on [N × B] blocks; a single answer is its B = 1
// call. It is written against a VerifyOps callback pair so every solver
// shares it: the FastDirectSolver wrappers below, the hybrid solver, and
// the distributed solvers, whose u/x are replicated on every rank —
// each rank reaches the identical refine/stop decision, so the
// correction solves routed through VerifyOps::solve stay collective.
// It refines only failing columns (one narrow blocked correction solve
// per step), which is what keeps certification cheap for the serving
// path's batched solves. finish_solve() wraps it into the one
// status-plus-certify epilogue every guarded solve ends with.
#pragma once

#include "core/solver.hpp"
#include "iterative/gmres.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace fdks::core {

/// Sampling decision: is solve number `solve_index` in-sample under
/// policy `p`? Index 0 is always in-sample (the first solve after a
/// factorization is the one most worth checking).
bool should_verify(const VerifyPolicy& p, std::uint64_t solve_index);

/// A certification operator Y = (λI+K)X on [N × B] views. Y may alias
/// X: the ladder re-measures a gathered panel in place.
using BlockOp = std::function<void(la::ConstMatrixView, la::MatrixView)>;

/// The operator `op` certifies against on `h` at `lambda`: the
/// target-interpolation apply() for Factorized, the source-skeleton
/// apply_source() for Treecode. `h` must outlive the returned operator.
BlockOp certification_operator(const HMatrix& h, VerifyPolicy::Operator op,
                               double lambda);

/// The callbacks the ladder is generic over. `apply` is the block
/// certification operator (certification_operator); `solve` is the
/// approximate factor Y = F⁻¹ B on [N × B] views, used for the batched
/// refinement corrections and (at B = 1) as the GMRES right
/// preconditioner.
struct VerifyOps {
  BlockOp apply;
  BlockOp solve;
  /// Emit verify.*/refine.*/guardrail.escalations obs keys. Distributed
  /// callers set this on rank 0 only so collective ladders count each
  /// event once.
  bool emit_obs = true;
};

/// Certify every column of x (solutions of A X = B already computed by
/// the caller) and walk the escalation ladder in place: rung 0 measures
/// the whole batch with one block apply; rung 1 refines ONLY the failing
/// columns — each step gathers their residuals into one narrow block,
/// runs a single blocked correction solve, scatters the updates back and
/// re-measures them with one block apply (per-column blame, batched
/// repair); columns that stagnate above target escalate individually
/// through the GMRES rung. Emits verify.checks/fail/residual/seconds and
/// refine.steps/escalations (when ops.emit_obs). Honors `cancel` between
/// rungs and inside the GMRES rung (CancelledError propagates). The
/// sampling decision is the caller's (should_verify) — this always
/// measures. Returns one outcome per column.
std::vector<VerifyOutcome> certify_and_refine_block_ops(
    const VerifyOps& ops, la::ConstMatrixView b, la::MatrixView x,
    const VerifyPolicy& p, const CancelToken* cancel = nullptr);

/// The status-plus-certify epilogue every guarded solve ends with, one
/// status priority for all solvers (worst condition first):
///   NonFinite    — U or X holds NaN/Inf (nothing is measured);
///   NotConverged — `certify` ran the ladder and a column stayed above
///                  the target;
///   Escalated    — the ladder's GMRES rung ran and certified;
///   `reduced`    — the pass's own reduced-system GMRES failure (hybrid
///                  solvers; Ok otherwise);
///   ShiftedDiagonal — the factor carries a guardrail shift.
/// `residual` is the worst column's: the ladder's when `certify`, else
/// one block measurement through ops.apply. X is refined in place.
SolveStatus finish_solve(const VerifyOps& ops, const VerifyPolicy& p,
                         bool certify, const FactorStatus& fs,
                         SolveCode reduced, int gmres_iterations,
                         la::ConstMatrixView u, la::MatrixView x,
                         const CancelToken* cancel = nullptr);

/// FastDirectSolver adapters: build VerifyOps from the solver and run
/// the ladder, with the sampling decision folded in (`solve_index`
/// feeds should_verify; a skipped solve returns measured == false and
/// leaves x untouched).
VerifyOps solver_ops(const FastDirectSolver& s, const VerifyPolicy& p,
                     const CancelToken* cancel = nullptr);

VerifyOutcome certify_and_refine(const FastDirectSolver& s,
                                 std::span<const double> b,
                                 std::span<double> x, const VerifyPolicy& p,
                                 std::uint64_t solve_index = 0,
                                 const CancelToken* cancel = nullptr);

std::vector<VerifyOutcome> certify_and_refine_block(
    const FastDirectSolver& s, la::ConstMatrixView b, la::MatrixView x,
    const VerifyPolicy& p, std::uint64_t solve_index = 0,
    const CancelToken* cancel = nullptr);

}  // namespace fdks::core
