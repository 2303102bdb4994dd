// Admission queue + batched execution for the serving front end.
//
// ServeEngine turns independent single-RHS solve requests into blocked
// multi-RHS solves: submit() enqueues a right-hand side and returns a
// future; a worker thread drains the queue, packs up to `batch_max`
// pending requests into one [n x B] block, and runs a single batched
// solve through the factor tree (FastDirectSolver::solve(Matrix)) —
// every factor matrix is streamed once per batch instead of once per
// request, which is the multi-RHS throughput win bench_serving
// measures.
//
// The request lifecycle is hardened end to end (serve/status.hpp holds
// the outcome vocabulary):
//   - Admission control: queue_max bounds the queue; submissions past
//     it are shed with ServeError(Overloaded). validate_rhs rejects
//     non-finite right-hand sides at the door (InvalidRhs).
//   - Deadlines: per-request (submit overload) or engine-wide
//     (default_deadline). Expired requests are shed before packing;
//     a batch whose every member is expired aborts mid-solve through
//     the core::CancelToken threaded into the telescoping recursion,
//     and requests that finish past their deadline still fail with
//     DeadlineExceeded.
//   - Poison isolation: block solve columns are arithmetically
//     independent, so a NaN that survives admission fails only its own
//     request (PoisonRhs); a solve that throws is bisected until the
//     offending request(s) fail alone (SolveFailed).
//   - Degraded mode: when the queue reaches degrade_watermark of
//     queue_max, batches are served by the GMRES-only treecode path at
//     relaxed tolerance and marked ServeResult::Degraded — graceful
//     degradation instead of unbounded queueing.
//   - Certification: under ServeOptions::verify, in-sample batches have
//     their Ok answers' residuals measured a posteriori through the
//     treecode matvec; failing columns walk the refinement/escalation
//     ladder (core/verify.hpp) and an uncertifiable answer fails with
//     SolveFailed rather than being returned silently wrong.
//
// pause()/resume() gate the worker: submissions made while paused are
// coalesced into maximal batches on resume. This is how tests and the
// bench's deterministic smoke mode pin down batch composition —
// without it, batch sizes depend on scheduler timing.
//
// Observability (obs/keys.hpp): every admitted request — expired in
// the queue, failed by shutdown(), or finished in a batch — ends in
// finish(), which derives each sink from the request's final record;
// submit()'s rejections share its counter-and-event code, then throw.
// Each final code bumps at most one outcome counter, the twin of one
// Stats field: serve.shed, serve.expired, serve.degraded, serve.poison
// (PoisonRhs and non-finite InvalidRhs) or serve.failed (SolveFailed).
// Also serve.requests at admission; per batch serve.batches, the
// serve.batch_size / serve.batch_seconds histograms and the serve.batch
// timer scope (solve plus certification); serve.request_seconds per
// admitted request. Live telemetry hooks (optional, in ServeOptions):
//   - event_log: every submit() mints a monotonic request_id
//     (obs::next_request_id) and the engine narrates the request's
//     lifecycle — admitted / shed / batched / solved / expired /
//     degraded / failed — one JSON line each, exactly one terminal
//     event per request (obs/eventlog.hpp).
//   - slo: each admitted request's latency and outcome feed a
//     rolling-window SLO tracker whose exhausted error budget is a
//     second trigger (besides the queue watermark) for degraded
//     batches; the engine publishes serve.slo_budget /
//     serve.slo_p99_seconds gauges per batch and counts
//     serve.slo_breach when the SLO alone forces degradation.
//   - tail_trace: each admitted request's latency/outcome is offered to
//     a tail sampler that keeps the trace slice of the slowest (and all
//     failed) requests, with request_id stamped as a trace flow from
//     submit() into the worker's batch (serve/tail_trace.hpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/solver.hpp"
#include "iterative/gmres.hpp"
#include "obs/eventlog.hpp"
#include "serve/slo.hpp"
#include "serve/status.hpp"
#include "serve/tail_trace.hpp"

namespace fdks::serve {

using core::index_t;

/// Relaxed-tolerance GMRES settings for the degraded fallback: enough
/// accuracy to be useful (1e-4 on the treecode operator), cheap enough
/// to burn down a backlog.
inline iter::GmresOptions degraded_gmres_defaults() {
  iter::GmresOptions g;
  g.rtol = 1e-4;
  g.max_iters = 200;
  g.restart = 60;
  g.record_history = false;
  return g;
}

/// Solve (lambda I + K~) x = rhs with GMRES on the treecode matvec
/// alone — no factorization involved, which is exactly why it serves
/// as the fallback when the queue saturates or the FactorCache breaker
/// is open (a tripped breaker means no factorization exists, but the
/// HMatrix still applies). The result is marked ServeCode::Degraded
/// and carries the achieved relative residual. Throws
/// core::CancelledError if `cancel` expires and
/// ServeError(SolveFailed) if the iteration goes non-finite.
ServeResult degraded_gmres_solve(const core::HMatrix& h, double lambda,
                                 std::span<const double> rhs,
                                 const iter::GmresOptions& gopts,
                                 const core::CancelToken* cancel = nullptr);

struct ServeOptions {
  index_t batch_max = 64;  ///< Largest block width one batch may use.
  bool start_paused = false;  ///< Begin with the admission gate closed.
  /// Admission bound: submissions beyond this many queued requests are
  /// shed with ServeError(Overloaded). 0 = unbounded (no shedding).
  size_t queue_max = 0;
  /// Engine-wide deadline applied to submissions that do not carry
  /// their own (the two-argument submit overload). Zero = none.
  std::chrono::milliseconds default_deadline{0};
  /// Reject non-finite right-hand sides at submit (InvalidRhs) instead
  /// of letting them poison a batch. Tests disable this to exercise
  /// in-batch poison isolation.
  bool validate_rhs = true;
  /// Degraded-mode watermark: when queue_max > 0 and the queue holds at
  /// least degrade_watermark * queue_max requests at packing time, the
  /// batch is served by the GMRES-only path (degraded_gmres options)
  /// and every result is marked Degraded. 0 disables.
  double degrade_watermark = 0.0;
  iter::GmresOptions degraded_gmres = degraded_gmres_defaults();
  /// Answer certification (core/verify.hpp): when enabled, each direct
  /// batch in-sample under the policy has its Ok columns certified —
  /// the measured residual lands in ServeResult::residual, failing
  /// columns walk the refinement/escalation ladder (only they are
  /// re-solved, batched), and a column the ladder cannot certify fails
  /// with ServeError(SolveFailed) instead of returning silently wrong.
  core::VerifyPolicy verify;
  /// Request-lifecycle event log (obs/eventlog.hpp). Null = no logging.
  /// Shared so several engines (one per lambda in fdks_serve) can feed
  /// one stream; request_ids are process-global, so lines never clash.
  std::shared_ptr<obs::EventLog> event_log;
  /// Rolling-window SLO tracker. When its error budget runs out the
  /// engine serves degraded batches exactly as if the queue had crossed
  /// degrade_watermark. Null = no SLO input.
  std::shared_ptr<SloTracker> slo;
  /// Tail-based trace sampler consulted as each admitted request
  /// finishes. Null = no tail sampling. Only useful while obs::trace is
  /// enabled.
  std::shared_ptr<TailTraceSampler> tail_trace;
};

class ServeEngine {
 public:
  /// solver must remain valid for the engine's lifetime (pair with
  /// FactorCache, whose shared_ptr keeps it alive).
  ServeEngine(std::shared_ptr<const core::FastDirectSolver> solver,
              ServeOptions opts = {});
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Enqueue one right-hand side (length n, original point order) under
  /// the engine-wide default_deadline (if any). The future yields a
  /// ServeResult (Ok or Degraded) or rethrows a ServeError whose code()
  /// says how the request ended (DeadlineExceeded, PoisonRhs,
  /// SolveFailed, ShuttingDown). Admission failures throw ServeError
  /// synchronously: Overloaded (queue_max reached), InvalidRhs (wrong
  /// length or non-finite), ShuttingDown.
  std::future<ServeResult> submit(std::vector<double> rhs);

  /// Same, with an explicit per-request deadline. A request whose
  /// deadline passes while queued is shed before ever occupying a batch
  /// slot; one that expires mid-solve is cancelled cooperatively.
  std::future<ServeResult> submit(
      std::vector<double> rhs,
      std::chrono::steady_clock::time_point deadline);

  /// Close the admission gate: queued and future submissions are held.
  void pause();
  /// Reopen the gate and wake the worker; held requests are drained in
  /// maximal batches (up to batch_max each).
  void resume();

  /// Wait for in-flight work: blocks until no batch is being solved
  /// AND the queue cannot make progress without outside help — i.e.
  /// the queue is empty, or the engine is paused/stopping. On a paused
  /// engine with queued requests this returns once the current batch
  /// (if any) finishes; it does NOT wait for a resume() that may never
  /// come.
  void drain();

  /// drain() with a timeout; returns false if the wait timed out. The
  /// graceful-shutdown pattern: drain_for(budget), then shutdown() —
  /// whatever is still queued fails with ShuttingDown.
  bool drain_for(std::chrono::milliseconds timeout);

  /// Stop the worker and fail every request still queued with
  /// ServeError(ShuttingDown). Idempotent; called by the destructor.
  /// Concurrent submit() calls are safe against shutdown() (they either
  /// enqueue before the cut and get ShuttingDown through the future, or
  /// throw it synchronously) — but callers must not destroy the engine
  /// while other threads still hold a reference to it.
  void shutdown();

  index_t n() const;

  struct Stats {
    std::uint64_t requests = 0;   ///< Accepted into the queue.
    std::uint64_t batches = 0;
    std::uint64_t shed = 0;       ///< Rejected at admission (Overloaded).
    std::uint64_t expired = 0;    ///< Failed with DeadlineExceeded.
    std::uint64_t degraded = 0;   ///< Served by the GMRES-only fallback.
    std::uint64_t poisoned = 0;   ///< InvalidRhs (non-finite) + PoisonRhs.
    std::uint64_t failed = 0;     ///< SolveFailed (bisection, an
                                  ///< uncertifiable residual, or a
                                  ///< non-finite degraded GMRES).
    std::uint64_t verified = 0;   ///< Answers carrying a certified
                                  ///< (measured) residual.
    std::uint64_t refined = 0;    ///< Answers that took >= 1 refinement
                                  ///< step before certifying.
    std::uint64_t escalated = 0;  ///< Answers that reached the GMRES
                                  ///< escalation rung.
    index_t max_batch = 0;
  };
  Stats stats() const;

 private:
  /// One request from submit() to its end. The batch runners fill the
  /// outcome fields in place; finish() derives every sink from them.
  struct RequestRecord {
    std::uint64_t id = 0;  ///< Process-unique (obs::next_request_id).
    std::vector<double> rhs;
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  ///< max() = none.
    std::uint64_t batch_id = 0;  ///< 0 = never reached a batch.
    ServeCode code = ServeCode::Ok;
    std::vector<double> x;
    double residual = -1.0;
    std::string detail;
    const char* reason = nullptr;  ///< Terminal event's "reason" field.
    core::VerifyOutcome verify;    ///< Certification, when measured.
  };

  void worker_loop();
  /// Solve one packed batch under the latest member deadline (the
  /// direct path plus certification, or the degraded GMRES-only path),
  /// with the per-batch counters, histograms and serve.batch timer.
  void run_batch(std::vector<RequestRecord>& reqs, bool degraded,
                 Stats& tally);
  void solve_range(std::vector<RequestRecord>& reqs, size_t lo, size_t hi,
                   const core::CancelToken& tok);
  /// Certify the batch's Ok records under opts_.verify (no-op when the
  /// batch is out of sample): measured residuals land in the records,
  /// failing columns are refined/escalated in place, and a column the
  /// ladder cannot certify flips to SolveFailed.
  void certify_batch(std::vector<RequestRecord>& reqs,
                     const core::CancelToken& tok);
  void run_degraded_batch(std::vector<RequestRecord>& reqs,
                          const core::CancelToken& tok);
  /// Count and narrate an ended request: the one outcome counter of its
  /// final code (and that counter's Stats field, in `tally`), then its
  /// one terminal event line.
  void conclude(const RequestRecord& r, Stats& tally) const;
  /// End an admitted request at `now`: the late-deadline rule, then
  /// conclude(), serve.request_seconds, the SLO tracker, the tail
  /// sampler and the promise.
  void finish(RequestRecord& r, std::chrono::steady_clock::time_point now,
              Stats& tally);
  /// Reject a submission: conclude() it, then throw its ServeError.
  [[noreturn]] void reject(RequestRecord& r, ServeCode code,
                           const char* reason, const char* what);

  std::shared_ptr<const core::FastDirectSolver> solver_;
  ServeOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<RequestRecord> queue_;
  bool paused_ = false;
  bool stop_ = false;
  bool busy_ = false;  ///< A batch is being solved right now.
  Stats stats_;
  std::uint64_t verify_seq_ = 0;  ///< Batch sampling counter (worker only).
  std::uint64_t batch_seq_ = 0;   ///< batch_id minting (worker only).
  std::thread worker_;
};

}  // namespace fdks::serve
