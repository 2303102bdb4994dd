// Structured request outcomes for the serving front end.
//
// Every request submitted to ServeEngine resolves to exactly one of the
// states below — either synchronously (submit() throws a ServeError for
// admission failures: Overloaded, InvalidRhs, ShuttingDown) or through
// the returned future (a ServeResult for successful/degraded solves, a
// ServeError for per-request failures: DeadlineExceeded, PoisonRhs,
// SolveFailed). Nothing in the serving path surfaces an unstructured
// exception for a per-request condition; a caller that switches on
// ServeError::code() sees every way a request can end. The request
// state machine (queued → shed | expired | solved | degraded | failed)
// is documented in DESIGN.md §5.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace fdks::serve {

enum class ServeCode {
  Ok,                ///< Solved by the direct (factor-tree) path.
  Degraded,          ///< Solved by the GMRES-only fallback at relaxed
                     ///< tolerance (queue saturation or tripped breaker).
  Overloaded,        ///< Shed at admission: queue_max reached.
  InvalidRhs,        ///< Rejected at admission: wrong length or
                     ///< non-finite entries (validate_rhs).
  ShuttingDown,      ///< Engine stopping/destroyed before the solve.
  DeadlineExceeded,  ///< Deadline passed (shed from the queue, solve
                     ///< cancelled mid-flight, or finished too late).
  PoisonRhs,         ///< This request's column produced NaN/Inf while
                     ///< batchmates solved cleanly.
  SolveFailed,       ///< The solve threw for this request alone (batch
                     ///< bisection isolated it), its answer failed
                     ///< certification, or the degraded GMRES went
                     ///< non-finite.
  BreakerOpen,       ///< FactorCache circuit breaker is in cooldown for
                     ///< this factorization key.
};

inline const char* to_string(ServeCode c) {
  switch (c) {
    case ServeCode::Ok: return "ok";
    case ServeCode::Degraded: return "degraded";
    case ServeCode::Overloaded: return "overloaded";
    case ServeCode::InvalidRhs: return "invalid_rhs";
    case ServeCode::ShuttingDown: return "shutting_down";
    case ServeCode::DeadlineExceeded: return "deadline_exceeded";
    case ServeCode::PoisonRhs: return "poison_rhs";
    case ServeCode::SolveFailed: return "solve_failed";
    case ServeCode::BreakerOpen: return "breaker_open";
  }
  return "unknown";
}

/// The structured serving error: what() carries the human-readable
/// context ("Function: what" convention), code() the machine-readable
/// outcome.
class ServeError : public std::runtime_error {
 public:
  ServeError(ServeCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ServeCode code() const { return code_; }

 private:
  ServeCode code_;
};

/// Successful request payload. code is Ok or Degraded; x is the
/// solution in the caller's original point order. residual is the
/// measured relative residual ‖(λI+K)x − b‖/‖b‖ when one was computed:
/// always for Degraded results (the fallback GMRES reports its own),
/// and for Ok results whose batch was certified under
/// ServeOptions::verify (every batch when VerifyMode::Always). detail
/// says why a request was degraded.
struct ServeResult {
  ServeCode code = ServeCode::Ok;
  std::vector<double> x;
  double residual = -1.0;  ///< -1 = not measured (unverified Ok path).
  std::string detail;

  bool degraded() const { return code == ServeCode::Degraded; }
};

}  // namespace fdks::serve
