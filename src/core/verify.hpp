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
// The ladder is written against a VerifyOps callback pair so every
// solver shares it: the sequential FastDirectSolver wrappers below,
// and the distributed solvers, whose u/x are replicated on every rank —
// each rank reaches the identical refine/stop decision, so the
// correction solves routed through VerifyOps::solve stay collective.
//
// The block variants refine only failing columns (one narrow blocked
// correction solve per step), which is what keeps certification cheap
// for the serving path's batched solves.
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
/// approximate factor y = F⁻¹ b used for refinement corrections and as
/// the GMRES right preconditioner. `solve_block` (optional) batches the
/// rung-1 corrections of the block ladder; when empty, columns are
/// corrected one solve() at a time.
struct VerifyOps {
  BlockOp apply;
  iter::LinOp solve;
  std::function<Matrix(const Matrix&)> solve_block;
  /// Emit verify.*/refine.* obs keys. Distributed callers set this on
  /// rank 0 only so collective ladders count each event once.
  bool emit_obs = true;
};

/// Certify x (a solution of A x = b already computed by the caller) and
/// walk the escalation ladder in place until certified or exhausted.
/// Emits verify.checks/fail/residual/seconds and refine.steps/
/// escalations (when ops.emit_obs). Honors `cancel` between rungs and
/// inside the GMRES rung (CancelledError propagates). The sampling
/// decision is the caller's (should_verify) — this always measures.
VerifyOutcome certify_and_refine_ops(const VerifyOps& ops,
                                     std::span<const double> b,
                                     std::span<double> x,
                                     const VerifyPolicy& p,
                                     const CancelToken* cancel = nullptr);

/// Batched variant: certify every column of x against b with one block
/// apply, then refine ONLY the failing columns — each refinement step
/// gathers their residuals into one narrow block, runs a single blocked
/// correction solve, scatters the updates back and re-measures them
/// with one block apply (per-column blame, batched repair). Columns
/// that stagnate above target escalate individually through the GMRES
/// rung. Returns one outcome per column.
std::vector<VerifyOutcome> certify_and_refine_block_ops(
    const VerifyOps& ops, const Matrix& b, Matrix& x, const VerifyPolicy& p,
    const CancelToken* cancel = nullptr);

/// FastDirectSolver adapters: build VerifyOps from the solver and run
/// the ladder, with the sampling decision folded in (`solve_index`
/// feeds should_verify; a skipped solve returns measured == false and
/// leaves x untouched).
VerifyOutcome certify_and_refine(const FastDirectSolver& s,
                                 std::span<const double> b,
                                 std::span<double> x, const VerifyPolicy& p,
                                 std::uint64_t solve_index = 0,
                                 const CancelToken* cancel = nullptr);

std::vector<VerifyOutcome> certify_and_refine_block(
    const FastDirectSolver& s, const Matrix& b, Matrix& x,
    const VerifyPolicy& p, std::uint64_t solve_index = 0,
    const CancelToken* cancel = nullptr);

}  // namespace fdks::core
