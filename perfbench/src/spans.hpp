// Benchmark-side spans for the traced run.
//
// A span is recorded around every public library call the benchmark
// makes: name, start, end, parent span, and the request index when
// serving. Spans live in memory and are written with the results file at
// exit. Spans opened on the load-generator thread nest (a stack gives
// each its parent); request spans, which run from a request's scheduled
// send to its answer, overlap each other and are kept as `async` spans
// that take no part in self-time accounting.
//
// A span's self time is its duration minus the part of it covered by
// its synchronous children. Coarse spans (builds, factorizations, block
// solves, bursts) also record the change of every obs counter across
// them, so rates such as GFLOP/s are measured where the work happens.
// When the tracer is off, opening a span costs one branch.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double t0 = 0.0;  ///< Seconds since the tracer started.
  double t1 = 0.0;
  int parent = -1;
  long long request = -1;
  bool async = false;
  std::map<std::string, double> delta;  ///< obs counter changes.
};

class Tracer {
 public:
  /// Start recording (and turn the obs registry on); idempotent.
  void start();
  /// Stop the obs registry recording; spans and counts stay readable.
  void stop();
  bool on() const { return on_; }

  int open(const std::string& name, bool counters = false,
           long long request = -1);
  void close(int id);
  /// Record an already-finished request span under the current span.
  void add_async(const std::string& name, Clock::time_point t0,
                 Clock::time_point t1, long long request);

  const std::vector<Span>& spans() const { return spans_; }
  int current() const { return stack_.empty() ? -1 : stack_.back(); }
  double at(Clock::time_point t) const { return seconds_between(epoch_, t); }

  /// Self time of every span (async spans: their duration).
  std::vector<double> self_times() const;
  /// Share of span `root`'s duration covered by the self time of the
  /// synchronous spans below it: what the layer spans account for.
  double coverage(int root) const;
  /// Sum of a counter's change over the spans with that name.
  double delta_sum(const std::string& span_name,
                   const std::string& counter) const;
  /// Durations of the spans with that name.
  std::vector<double> durations(const std::string& span_name) const;

  std::string to_json() const;

 private:
  bool on_ = false;
  Clock::time_point epoch_{};
  std::vector<Span> spans_;
  std::vector<int> stack_;
  /// Counter baseline of each span that records counter changes.
  std::vector<std::optional<std::map<std::string, double>>> base_;
};

Tracer& tracer();

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, bool counters = false,
                      long long request = -1)
      : id_(tracer().on() ? tracer().open(name, counters, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
