// Public entry point of the fast direct solver.
//
// FastDirectSolver factorizes (lambda I + K~) — the hierarchical
// approximation held by an askit::HMatrix — in O(N log N) work
// (Algorithm II.2, or the O(N log^2 N) [36] baseline for comparison)
// and solves linear systems in O(N log N) (Algorithm II.3).
//
// With a level-restricted HMatrix, the factorization continues above the
// frontier with expanded (identity-projection) blocks: correct but
// increasingly expensive, exactly the direct-method columns of Table V.
// Use HybridSolver (hybrid.hpp) for the paper's cheaper alternative.
#pragma once

#include "core/factor_tree.hpp"

#include <vector>

namespace fdks::core {

class FastDirectSolver {
 public:
  /// Factorizes on construction. h must outlive the solver.
  FastDirectSolver(const HMatrix& h, SolverOptions opts);

  /// Re-factorize (lambda I + K~) for a new lambda, reusing the stored
  /// V kernel blocks — the fast path for cross-validation lambda sweeps
  /// (the paper's motivating workload: "the factorization has to be
  /// done for different values of lambda", §I).
  void refactorize(double lambda);

  /// Solve (lambda I + K~) X = U for the B columns of U, in the caller's
  /// original point order: one batched telescoping solve that streams
  /// every factor once for the whole block. U and X must both be N x B
  /// (std::invalid_argument otherwise, before any data is touched); X may
  /// alias U. `cancel` (optional) is checked at the internal-node
  /// boundaries of the recursion; an expired token aborts the solve with
  /// core::CancelledError (see core/cancel.hpp) and leaves X garbage.
  void solve(la::ConstMatrixView u, la::MatrixView x,
             const CancelToken* cancel = nullptr) const;

  // B = 1 and owning views of the block solve.
  void solve(std::span<const double> u, std::span<double> x,
             const CancelToken* cancel = nullptr) const {
    solve(la::column_view(u), la::column_view(x), cancel);
  }
  std::vector<double> solve(std::span<const double> u,
                            const CancelToken* cancel = nullptr) const;
  Matrix solve(const Matrix& u, const CancelToken* cancel = nullptr) const;

  /// Guarded solve: validates the input, solves, validates the output,
  /// and returns a structured outcome (core::finish_solve, no
  /// certification ladder) including the true relative residual through
  /// the options().verify.op operator (the factorized operator by
  /// default) and any diagonal-shift degradation inherited from the
  /// factorization. A non-finite right-hand side is reported without
  /// solving. Never throws on numerical trouble — inspect the returned
  /// SolveStatus.
  SolveStatus solve_checked(std::span<const double> u,
                            std::span<double> x) const;

  /// Structured factorization outcome (shift retries, NaN detection).
  FactorStatus factor_status() const { return ft_.factor_status(); }

  /// Verified solve: runs solve(), then the certification + escalation
  /// ladder of `ft_.options().verify` (core/verify.hpp) on the answer.
  /// `solve_index` feeds the sampling policy (caller-maintained solve
  /// counter; 0 is always in-sample). x is refined in place.
  VerifyOutcome solve_verified(std::span<const double> u,
                               std::span<double> x,
                               std::uint64_t solve_index = 0,
                               const CancelToken* cancel = nullptr) const;

  // -- Factor integrity (self-healing cache / checkpoint restore) ------

  /// The content checksum sealed right after the last (re)factorization.
  std::uint64_t sealed_checksum() const { return sealed_checksum_; }

  /// Recompute the factor checksum and compare against the sealed one.
  /// Emits verify.integrity_check, and verify.integrity_fail on
  /// mismatch. False means the resident factors no longer match what
  /// was factorized — the caller should discard and refactorize.
  bool verify_integrity() const;

  /// Deterministic fault injection (tests): flip one factor bit chosen
  /// by `seed`, WITHOUT re-sealing, so the next verify_integrity() must
  /// report the mismatch. Returns false if nothing could be corrupted.
  bool corrupt_factor_bit(std::uint64_t seed) {
    return ft_.corrupt_factor_bit(seed);
  }

  const StabilityReport& stability() const { return ft_.stability(); }
  const FactorTree& factor_tree() const { return ft_; }
  /// Per-phase factorization time breakdown (leaf factors, V assembly,
  /// Z factorization, telescoping).
  const FactorProfile& profile() const { return ft_.profile(); }
  double factor_seconds() const { return factor_seconds_; }
  size_t factor_bytes() const;
  double lambda() const { return ft_.options().lambda; }

 private:
  FactorTree ft_;
  double factor_seconds_ = 0.0;
  std::uint64_t sealed_checksum_ = 0;  ///< content_checksum() at seal time.
};

}  // namespace fdks::core
