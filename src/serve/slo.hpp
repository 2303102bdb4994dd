// Rolling-window SLO tracking for the serving engine.
//
// An objective is a pair of limits — p99 latency and error rate — over
// the most recent `window` completed requests. The tracker maintains
// both observations in a ring, reports an error-budget gauge in [0, 1]
// (1 = untouched budget, 0 = objective breached), and recommends
// degrading when the budget runs out. ServeEngine consults it as an
// additional input to the queue-depth `degrade_watermark` decision:
// queue depth reacts to load *now*, the SLO reacts to latency the
// clients already experienced — together they cover both edges of an
// overload.
//
// Budget definition (per enabled limit, then combined by min):
//   latency : 1 - p99/target, clamped to [0, 1]
//   errors  : 1 - error_rate/max_error_rate, clamped to [0, 1]
// A limit set to 0 is disabled. With fewer than `min_samples`
// observations the tracker abstains (full budget, no breach) so a cold
// start never degrades.
//
// Thread safety: all methods lock one mutex; record() is O(1), Status
// computation is O(window) (nth_element on a copy) and intended for
// per-batch cadence, not per-request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace fdks::serve {

struct SloOptions {
  double p99_target_seconds = 0.0;  ///< 0 = latency objective disabled.
  double max_error_rate = 0.0;      ///< 0 = error-rate objective disabled.
  std::size_t window = 512;         ///< Completed requests considered.
  std::size_t min_samples = 32;     ///< Abstain below this many.
};

class SloTracker {
 public:
  explicit SloTracker(SloOptions opts = {});

  /// One finished request: observed latency plus whether it ended in
  /// an error outcome. ServeEngine records every admitted request: an
  /// expired, poisoned, failed or shut-down one as an error, an Ok or
  /// Degraded one as not. Rejections at submit() (shed, invalid rhs)
  /// have no latency and are never recorded.
  void record(double latency_seconds, bool error);

  struct Status {
    std::size_t samples = 0;       ///< Observations in the window.
    double p99_seconds = 0.0;      ///< 0 while abstaining.
    double error_rate = 0.0;
    double budget_remaining = 1.0; ///< min over enabled limits, [0, 1].
    bool breached = false;         ///< Some enabled limit is exceeded.
  };
  Status status() const;

  /// True when the error budget is exhausted — the engine treats this
  /// like a queue past its degrade watermark.
  bool degrade_recommended() const { return status().breached; }

  const SloOptions& options() const { return opts_; }

 private:
  SloOptions opts_;
  mutable std::mutex mu_;
  std::vector<double> latency_ring_;
  std::vector<bool> error_ring_;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace fdks::serve
