// Tail-based request trace sampling.
//
// Head sampling (flip a coin at admission) misses exactly the requests
// worth debugging: the p99 stragglers and the errors. Tail sampling
// decides *after* the outcome is known — cheap here because the trace
// ring buffers (obs/trace.hpp) already hold every span; all this class
// adds is a keep/drop decision as each request finishes and a bounded
// store of kept slices.
//
// Policy, for a budget of `keep` traces:
//   - error outcomes are always kept, evicting the fastest non-error
//     entry when full (errors never evict errors for a slow request);
//   - successful requests are kept while the store has room, then only
//     when slower than the current slowest — so at any instant the
//     store holds the latency tail of the run so far;
//   - requests faster than `min_latency_seconds` are never kept.
//
// A kept entry snapshots trace::collect() filtered to the request's
// [enqueue, finish] window plus every flow event stamped with its
// request_id — ServeEngine emits flow_send at submit and flow_recv at
// batch pack, so the exported Perfetto JSON shows an arrow from the
// submitting thread into the worker's solve span. write_all() renders
// one Chrome-trace JSON per kept request.
//
// Thread safety: observe() and the accessors lock one mutex; the
// trace::collect() snapshot happens only for kept requests (at most
// `keep` live copies), so the common fast-request path is a mutex and
// a compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace fdks::serve {

struct TailTraceOptions {
  std::size_t keep = 4;              ///< Kept-trace budget (0 disables).
  double min_latency_seconds = 0.0;  ///< Floor for non-error keeps.
};

class TailTraceSampler {
 public:
  explicit TailTraceSampler(TailTraceOptions opts = {});

  struct KeptTrace {
    std::uint64_t request_id = 0;
    double latency_seconds = 0.0;
    bool error = false;
    obs::trace::TraceData data;  ///< Filtered slice, ready to export.
  };

  /// Keep/drop decision for one completed request. `window_t0_ns` /
  /// `window_t1_ns` bound the request's life on the steady_clock epoch
  /// the trace buffers use (enqueue to finish). Returns true
  /// when the request's trace was kept. Bumps serve.trace_kept on keep.
  bool observe(std::uint64_t request_id, double latency_seconds, bool error,
               std::uint64_t window_t0_ns, std::uint64_t window_t1_ns);

  std::size_t kept_count() const;
  std::vector<KeptTrace> kept() const;  ///< Copies, slowest-first.

  /// Write each kept trace to "<prefix>req<id>.json" (Chrome trace
  /// JSON, Perfetto-loadable). Returns the number of files written.
  std::size_t write_all(const std::string& prefix) const;

  const TailTraceOptions& options() const { return opts_; }

 private:
  TailTraceOptions opts_;
  mutable std::mutex mu_;
  std::vector<KeptTrace> kept_;  ///< Sorted slowest-first, <= keep.
};

}  // namespace fdks::serve
