#include "serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/verify.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace fdks::serve {

namespace {

using steady_clock = std::chrono::steady_clock;

constexpr steady_clock::time_point kNoDeadline =
    steady_clock::time_point::max();

/// Trace events timestamp on the steady_clock-since-epoch ns scale
/// (obs/trace.cpp); request windows handed to the tail sampler must
/// live on the same scale.
std::uint64_t ns_since_epoch(steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

/// A wrong-length rhs is a caller bug, not poison: the one InvalidRhs
/// rejection that counts in no outcome counter.
constexpr const char* kSizeMismatch = "size_mismatch";

/// Fold a batch's (or a rejection's) tally into the engine's Stats.
void accumulate(ServeEngine::Stats& s, const ServeEngine::Stats& d) {
  s.requests += d.requests;
  s.batches += d.batches;
  s.shed += d.shed;
  s.expired += d.expired;
  s.degraded += d.degraded;
  s.poisoned += d.poisoned;
  s.failed += d.failed;
  s.verified += d.verified;
  s.refined += d.refined;
  s.escalated += d.escalated;
  s.max_batch = std::max(s.max_batch, d.max_batch);
}

}  // namespace

ServeResult degraded_gmres_solve(const core::HMatrix& h, double lambda,
                                 std::span<const double> rhs,
                                 const iter::GmresOptions& gopts,
                                 const core::CancelToken* cancel) {
  iter::GmresOptions g = gopts;
  if (cancel) g.cancel = cancel;
  iter::GmresResult r = iter::gmres(
      h.n(),
      [&h, lambda](std::span<const double> in, std::span<double> out) {
        h.apply(in, out, lambda);
      },
      rhs, g);
  if (r.nonfinite)
    throw ServeError(ServeCode::SolveFailed,
                     "degraded_gmres_solve: non-finite iteration");
  ServeResult res;
  res.code = ServeCode::Degraded;
  res.x = std::move(r.x);
  res.residual = r.relative_residual;
  res.detail = r.converged
                   ? "gmres-only fallback at relaxed tolerance"
                   : "gmres-only fallback (tolerance not reached)";
  return res;
}

ServeEngine::ServeEngine(
    std::shared_ptr<const core::FastDirectSolver> solver, ServeOptions opts)
    : solver_(std::move(solver)), opts_(opts) {
  if (!solver_)
    throw std::invalid_argument("ServeEngine: null solver");
  if (opts_.batch_max < 1)
    throw std::invalid_argument("ServeEngine: batch_max must be >= 1");
  if (opts_.degrade_watermark < 0.0 || opts_.degrade_watermark > 1.0)
    throw std::invalid_argument(
        "ServeEngine: degrade_watermark must be in [0, 1]");
  paused_ = opts_.start_paused;
  worker_ = std::thread([this] { worker_loop(); });
}

ServeEngine::~ServeEngine() { shutdown(); }

void ServeEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    paused_ = false;  // A paused engine must still shut down cleanly.
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // Fail any requests the worker never picked up. The queue is swapped
  // out under the lock so a submit() that lost the race to stop_ (it
  // throws ShuttingDown without enqueueing) can never be dropped.
  std::deque<RequestRecord> leftover;
  {
    std::lock_guard<std::mutex> lk(mu_);
    leftover.swap(queue_);
  }
  const steady_clock::time_point now = steady_clock::now();
  Stats tally;
  for (RequestRecord& r : leftover) {
    r.code = ServeCode::ShuttingDown;
    r.detail = "engine shut down before solve";
    finish(r, now, tally);
  }
  std::lock_guard<std::mutex> lk(mu_);
  accumulate(stats_, tally);
}

index_t ServeEngine::n() const {
  return solver_->factor_tree().hmatrix().n();
}

std::future<ServeResult> ServeEngine::submit(std::vector<double> rhs) {
  const steady_clock::time_point deadline =
      opts_.default_deadline.count() > 0
          ? steady_clock::now() + opts_.default_deadline
          : kNoDeadline;
  return submit(std::move(rhs), deadline);
}

std::future<ServeResult> ServeEngine::submit(
    std::vector<double> rhs, std::chrono::steady_clock::time_point deadline) {
  // Every submission gets an id, even ones about to be rejected: the
  // event log's contract is that each submitted request shows up with
  // exactly one terminal event.
  RequestRecord r;
  r.id = obs::next_request_id();
  r.rhs = std::move(rhs);
  r.deadline = deadline;
  // Validate before counting (the src/la convention): a rejected
  // request must not perturb serve.requests or Stats::requests.
  if (static_cast<index_t>(r.rhs.size()) != n())
    reject(r, ServeCode::InvalidRhs, kSizeMismatch, "rhs size mismatch");
  if (opts_.validate_rhs && !core::all_finite(std::span<const double>(r.rhs)))
    reject(r, ServeCode::InvalidRhs, "nonfinite_rhs", "rhs contains NaN/Inf");
  r.enqueued = steady_clock::now();
  std::future<ServeResult> fut = r.promise.get_future();
  ServeCode refused = ServeCode::Ok;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      refused = ServeCode::ShuttingDown;
    } else if (opts_.queue_max > 0 && queue_.size() >= opts_.queue_max) {
      refused = ServeCode::Overloaded;
    } else {
      // Counter and stats field are bumped in the same critical section,
      // after every rejection path, so they cannot diverge.
      ++stats_.requests;
      obs::add("serve.requests");
      // "admitted" is emitted while still holding mu_: the worker can
      // only pop this request under the same lock, so admitted always
      // precedes the batched/terminal events. The submit-side half of
      // the request's trace flow is stamped here too.
      if (obs::trace::enabled()) {
        obs::trace::flow_send(r.id, /*peer=*/0, /*tag=*/0);
      }
      if (opts_.event_log) {
        opts_.event_log->emit(r.id, obs::events::kEvAdmitted);
      }
      queue_.push_back(std::move(r));
    }
  }
  if (refused == ServeCode::Overloaded)
    reject(r, refused, nullptr, "queue full, request shed");
  if (refused == ServeCode::ShuttingDown)
    reject(r, refused, nullptr, "engine is stopping");
  cv_.notify_all();
  return fut;
}

void ServeEngine::reject(RequestRecord& r, ServeCode code,
                         const char* reason, const char* what) {
  r.code = code;
  r.reason = reason;
  Stats tally;
  conclude(r, tally);
  {
    std::lock_guard<std::mutex> lk(mu_);
    accumulate(stats_, tally);
  }
  throw ServeError(code, std::string("ServeEngine::submit: ") + what);
}

void ServeEngine::conclude(const RequestRecord& r, Stats& tally) const {
  // The one outcome counter each final code bumps, beside its Stats
  // twin. Ok and ShuttingDown count in none.
  switch (r.code) {
    case ServeCode::Overloaded:
      obs::add("serve.shed");
      ++tally.shed;
      break;
    case ServeCode::DeadlineExceeded:
      obs::add("serve.expired");
      ++tally.expired;
      break;
    case ServeCode::Degraded:
      obs::add("serve.degraded");
      ++tally.degraded;
      break;
    case ServeCode::InvalidRhs:
    case ServeCode::PoisonRhs:
      if (r.reason == kSizeMismatch) break;
      obs::add("serve.poison");
      ++tally.poisoned;
      break;
    case ServeCode::SolveFailed:
      obs::add("serve.failed");
      ++tally.failed;
      break;
    default:
      break;
  }
  if (!opts_.event_log) return;
  obs::EventLog& log = *opts_.event_log;
  const std::uint64_t b = r.batch_id;
  switch (r.code) {
    case ServeCode::Ok:
      log.emit(r.id, obs::events::kEvSolved,
               {{"residual", r.residual},
                {"verified", r.residual >= 0.0},
                {"batch_id", b}});
      break;
    case ServeCode::Degraded:
      log.emit(r.id, obs::events::kEvDegraded,
               {{"residual", r.residual}, {"batch_id", b}});
      break;
    case ServeCode::Overloaded:
      log.emit(r.id, obs::events::kEvShed);
      break;
    case ServeCode::DeadlineExceeded:
      if (b != 0)
        log.emit(r.id, obs::events::kEvExpired, {{"batch_id", b}});
      else
        log.emit(r.id, obs::events::kEvExpired, {{"reason", r.reason}});
      break;
    default:
      if (b != 0)
        log.emit(r.id, obs::events::kEvFailed,
                 {{"code", to_string(r.code)}, {"batch_id", b}});
      else if (r.reason != nullptr)
        log.emit(r.id, obs::events::kEvFailed,
                 {{"code", to_string(r.code)}, {"reason", r.reason}});
      else
        log.emit(r.id, obs::events::kEvFailed, {{"code", to_string(r.code)}});
      break;
  }
}

void ServeEngine::finish(RequestRecord& r, steady_clock::time_point now,
                         Stats& tally) {
  // A request whose own deadline passed during the solve fails even if
  // the batch (run under the *latest* member deadline) produced a value
  // for it.
  if (r.deadline <= now &&
      (r.code == ServeCode::Ok || r.code == ServeCode::Degraded)) {
    r.code = ServeCode::DeadlineExceeded;
    r.detail = "solve finished after the request deadline";
  }
  // Exactly one terminal event per request, before the promise is
  // fulfilled, so an event-log reader that reacts to the future never
  // races a missing line.
  conclude(r, tally);
  if (r.verify.measured) ++tally.verified;
  if (r.verify.refine_steps > 0) ++tally.refined;
  if (r.verify.escalations > 0) ++tally.escalated;
  const double lat = std::chrono::duration<double>(now - r.enqueued).count();
  obs::hist("serve.request_seconds", lat);
  const bool error =
      r.code != ServeCode::Ok && r.code != ServeCode::Degraded;
  if (opts_.slo) opts_.slo->record(lat, error);
  if (opts_.tail_trace) {
    opts_.tail_trace->observe(r.id, lat, error, ns_since_epoch(r.enqueued),
                              ns_since_epoch(now));
  }
  if (error) {
    r.promise.set_exception(std::make_exception_ptr(
        ServeError(r.code, "ServeEngine: " + r.detail)));
  } else {
    r.promise.set_value(ServeResult{r.code, std::move(r.x), r.residual,
                                    std::move(r.detail)});
  }
}

void ServeEngine::pause() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void ServeEngine::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void ServeEngine::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] {
    return !busy_ && (queue_.empty() || paused_ || stop_);
  });
}

bool ServeEngine::drain_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  return cv_.wait_for(lk, timeout, [this] {
    return !busy_ && (queue_.empty() || paused_ || stop_);
  });
}

ServeEngine::Stats ServeEngine::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ServeEngine::run_batch(std::vector<RequestRecord>& reqs, bool degraded,
                            Stats& tally) {
  const std::uint64_t batch_id = ++batch_seq_;
  const index_t width = static_cast<index_t>(reqs.size());
  // The batch runs under the latest deadline of its members: work keeps
  // going as long as any member could still use the result, and aborts
  // cooperatively once none can.
  steady_clock::time_point latest = steady_clock::time_point::min();
  for (RequestRecord& r : reqs) {
    r.batch_id = batch_id;
    latest = std::max(latest, r.deadline);
    // Close the request's trace flow on the worker side, then narrate
    // which batch it rode in.
    if (obs::trace::enabled()) {
      obs::trace::flow_recv(r.id, /*peer=*/0, /*tag=*/0);
    }
    if (opts_.event_log) {
      opts_.event_log->emit(
          r.id, obs::events::kEvBatched,
          {{"batch_id", batch_id},
           {"width", static_cast<std::uint64_t>(width)}});
    }
  }
  const core::CancelToken tok = latest == kNoDeadline
                                    ? core::CancelToken()
                                    : core::CancelToken::at(latest);
  obs::add("serve.batches");
  obs::hist("serve.batch_size", static_cast<double>(width));
  obs::ScopedTimer t_batch("serve.batch");
  if (degraded) {
    run_degraded_batch(reqs, tok);
  } else {
    solve_range(reqs, 0, reqs.size(), tok);
    certify_batch(reqs, tok);
  }
  obs::hist("serve.batch_seconds", t_batch.stop());
  ++tally.batches;
  tally.max_batch = std::max(tally.max_batch, width);
}

void ServeEngine::solve_range(std::vector<RequestRecord>& reqs, size_t lo,
                              size_t hi, const core::CancelToken& tok) {
  const index_t nn = n();
  const index_t width = static_cast<index_t>(hi - lo);
  la::Matrix u(nn, width);
  for (size_t j = lo; j < hi; ++j)
    std::copy(reqs[j].rhs.begin(), reqs[j].rhs.end(),
              u.col(static_cast<index_t>(j - lo)));

  la::Matrix x;
  try {
    x = solver_->solve(u, &tok);
  } catch (const core::CancelledError& e) {
    for (size_t j = lo; j < hi; ++j) {
      reqs[j].code = ServeCode::DeadlineExceeded;
      reqs[j].detail = e.what();
    }
    return;
  } catch (const std::exception& e) {
    if (width == 1) {
      // Bisection bottomed out: this request alone made the solve
      // throw — fail it, leaving every batchmate untouched.
      reqs[lo].code = ServeCode::SolveFailed;
      reqs[lo].detail =
          std::string("batched solve failed for this request: ") + e.what();
      return;
    }
    const size_t mid = lo + (hi - lo) / 2;
    solve_range(reqs, lo, mid, tok);
    solve_range(reqs, mid, hi, tok);
    return;
  }

  for (size_t j = lo; j < hi; ++j) {
    const double* col = x.col(static_cast<index_t>(j - lo));
    if (!core::all_finite(
            std::span<const double>(col, static_cast<size_t>(nn)))) {
      // Block solve columns are arithmetically independent, so NaN/Inf
      // here indicts exactly this request's right-hand side.
      reqs[j].code = ServeCode::PoisonRhs;
      reqs[j].detail = "solution column contains NaN/Inf";
    } else {
      reqs[j].x.assign(col, col + nn);
    }
  }
}

void ServeEngine::certify_batch(std::vector<RequestRecord>& reqs,
                                const core::CancelToken& tok) {
  const core::VerifyPolicy& vp = opts_.verify;
  if (!vp.enabled()) return;
  if (!core::should_verify(vp, verify_seq_++)) return;

  // Certification covers the answers about to be returned as successes;
  // columns the solve already failed (poison, bisection) stay failed.
  std::vector<size_t> idx;
  for (size_t j = 0; j < reqs.size(); ++j)
    if (reqs[j].code == ServeCode::Ok) idx.push_back(j);
  if (idx.empty()) return;

  const index_t nn = n();
  la::Matrix b(nn, static_cast<index_t>(idx.size()));
  la::Matrix x(nn, static_cast<index_t>(idx.size()));
  for (size_t i = 0; i < idx.size(); ++i) {
    const index_t c = static_cast<index_t>(i);
    std::copy(reqs[idx[i]].rhs.begin(), reqs[idx[i]].rhs.end(), b.col(c));
    std::copy(reqs[idx[i]].x.begin(), reqs[idx[i]].x.end(), x.col(c));
  }

  std::vector<core::VerifyOutcome> vos;
  try {
    // solve_index 0: this batch is already in-sample (decided above).
    vos = core::certify_and_refine_block(*solver_, b, x, vp, 0, &tok);
  } catch (const core::CancelledError&) {
    // Every member deadline has passed (the token runs under the
    // latest); finish()'s late-deadline rule fails these.
    return;
  }

  for (size_t i = 0; i < idx.size(); ++i) {
    RequestRecord& r = reqs[idx[i]];
    const core::VerifyOutcome& vo = vos[i];
    r.verify = vo;
    r.residual = vo.residual;
    if (vo.certified) {
      // The ladder may have improved the column in place.
      const double* col = x.col(static_cast<index_t>(i));
      r.x.assign(col, col + nn);
    } else {
      std::ostringstream msg;
      msg << "certified residual " << vo.residual
          << " misses the verify target " << vp.target_residual
          << " after the escalation ladder";
      r.code = ServeCode::SolveFailed;
      r.detail = msg.str();
    }
  }
}

void ServeEngine::run_degraded_batch(std::vector<RequestRecord>& reqs,
                                     const core::CancelToken& tok) {
  const core::HMatrix& h = solver_->factor_tree().hmatrix();
  const double lambda = solver_->lambda();
  for (RequestRecord& r : reqs) {
    if (!core::all_finite(std::span<const double>(r.rhs))) {
      r.code = ServeCode::PoisonRhs;
      r.detail = "rhs contains NaN/Inf";
      continue;
    }
    try {
      ServeResult res =
          degraded_gmres_solve(h, lambda, r.rhs, opts_.degraded_gmres, &tok);
      r.code = res.code;
      r.x = std::move(res.x);
      r.residual = res.residual;
      r.detail = std::move(res.detail);
    } catch (const core::CancelledError& e) {
      r.code = ServeCode::DeadlineExceeded;
      r.detail = e.what();
    } catch (const ServeError& e) {
      r.code = e.code();
      r.detail = e.what();
    }
  }
}

void ServeEngine::worker_loop() {
  // Pre-fault this thread's trace buffer (multi-MB zero-fill at
  // default capacity) at startup rather than inside the first
  // request's solve window.
  obs::trace::warm();
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    // Predicate wait (no polling): progress is possible exactly when
    // we are stopping or unpaused work is queued.
    cv_.wait(lk, [this] {
      return stop_ || (!paused_ && !queue_.empty());
    });
    if (stop_) return;

    const steady_clock::time_point now = steady_clock::now();

    // Shed already-expired requests first: dead work must never occupy
    // a batch slot (they are finished outside the lock below).
    std::vector<RequestRecord> dead;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->deadline <= now) {
        dead.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }

    // Saturation watermark: with the queue nearly full, serve this
    // batch through the relaxed-tolerance GMRES-only path to burn down
    // the backlog (results are marked Degraded).
    const bool watermark_degrade =
        opts_.queue_max > 0 && opts_.degrade_watermark > 0.0 &&
        static_cast<double>(queue_.size()) >=
            opts_.degrade_watermark * static_cast<double>(opts_.queue_max);
    // Second trigger: an exhausted SLO error budget. The watermark sees
    // load building up *now*; the SLO sees latency clients already ate.
    const bool slo_degrade =
        opts_.slo != nullptr && opts_.slo->degrade_recommended();
    if (slo_degrade && !watermark_degrade) obs::add("serve.slo_breach");
    const bool degraded_batch = watermark_degrade || slo_degrade;

    const index_t batch = std::min<index_t>(
        opts_.batch_max, static_cast<index_t>(queue_.size()));
    std::vector<RequestRecord> reqs;
    reqs.reserve(static_cast<size_t>(batch));
    for (index_t i = 0; i < batch; ++i) {
      reqs.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    busy_ = true;
    lk.unlock();

    Stats tally;
    for (RequestRecord& r : dead) {
      r.code = ServeCode::DeadlineExceeded;
      r.reason = "expired_in_queue";
      r.detail = "deadline expired before the request reached a batch";
      finish(r, now, tally);
    }
    if (!reqs.empty()) {
      run_batch(reqs, degraded_batch, tally);
      const steady_clock::time_point done = steady_clock::now();
      for (RequestRecord& r : reqs) finish(r, done, tally);
    }
    // Publish the SLO view once per batch: cheap enough to gauge every
    // time, fresh enough for a scraper.
    if (opts_.slo && (!reqs.empty() || !dead.empty())) {
      const SloTracker::Status slo_st = opts_.slo->status();
      obs::gauge("serve.slo_budget", slo_st.budget_remaining);
      obs::gauge("serve.slo_p99_seconds", slo_st.p99_seconds);
    }

    lk.lock();
    busy_ = false;
    accumulate(stats_, tally);
    cv_.notify_all();  // Wake drain()/drain_for() waiters.
  }
}

}  // namespace fdks::serve
