// Shared helpers for the benchmark harnesses: wall-clock timing, random
// right-hand sides, dataset shortcuts, and the machine-readable report.
// Every bench binary reproduces one table or figure of the paper;
// absolute numbers differ from the paper's cluster hardware, the *shape*
// (who wins, by what factor, where crossovers happen) is the
// reproduction target (see EXPERIMENTS.md). Besides the stdout table,
// each binary writes BENCH_<name>.json (config + merged obs timer tree +
// counters) so the timing trajectory is diffable across PRs.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace fdks::bench {

class Timer {
 public:
  Timer() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }
  void reset() { t0_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point t0_;
};

inline std::vector<double> random_rhs(la::index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = g(rng);
  return v;
}

/// Parse an optional size-scale argument: benches default to laptop
/// sizes; pass a larger N for longer runs. Malformed or non-positive
/// sizes are a hard error (atol would silently yield N=0 and make the
/// bench report nonsense timings for an empty problem).
inline la::index_t arg_n(int argc, char** argv, la::index_t fallback) {
  if (argc <= 1) return fallback;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(argv[1], &end, 10);
  if (errno != 0 || end == argv[1] || *end != '\0' || v <= 0) {
    std::fprintf(stderr,
                 "invalid size argument '%s': expected a positive integer\n",
                 argv[1]);
    std::exit(2);
  }
  return static_cast<la::index_t>(v);
}

inline void print_header(const char* title) {
  std::printf("==============================================================="
              "=========\n%s\n"
              "==============================================================="
              "=========\n",
              title);
}

/// Turn the obs registry on (cleared) at bench start; FDKS_TRACE=<file>
/// additionally turns on event tracing (exported by write_bench_json).
inline void obs_begin() {
  obs::set_enabled(true);
  obs::reset();
  if (const char* tr = std::getenv("FDKS_TRACE"); tr && *tr) {
    obs::trace::set_enabled(true);
    obs::trace::reset();
  }
}

/// Run `f` under a named top-level phase scope ("setup", ...). Returns
/// f()'s result with guaranteed copy elision, so phases can wrap
/// non-movable constructions: `auto h = phase("setup", [&]{ return
/// askit::HMatrix(...); });`.
template <class F>
decltype(auto) phase(const char* name, F&& f) {
  // fdks-lint: allow(OBS-KEY) generic wrapper; callers pass registered keys
  obs::ScopedTimer t(name);
  return std::forward<F>(f)();
}

/// Write BENCH_<name>.json in the working directory from the current
/// obs snapshot and announce it on stderr, so a bench's stdout holds
/// only its own report (google-benchmark's JSON stays valid). Peak process memory is
/// stamped in as mem.peak_rss_bytes so the regression gate can watch
/// footprint alongside work counters. With FDKS_TRACE=<file.json> in
/// the environment and tracing enabled, the event trace is exported
/// alongside the metrics.
inline void write_bench_json(const char* name,
                             std::vector<obs::ConfigKV> config = {}) {
  obs::Snapshot snap = obs::snapshot();
  const double peak = static_cast<double>(obs::peak_rss_bytes());
  if (peak > 0.0) snap.counters["mem.peak_rss_bytes"] = peak;
  const std::string path = std::string("BENCH_") + name + ".json";
  if (obs::write_json(path, name, config, snap))
    std::fprintf(stderr, "\n[obs] wrote %s\n", path.c_str());
  if (const char* tr = std::getenv("FDKS_TRACE"); tr && *tr)
    if (obs::trace::enabled() && obs::trace::write_chrome_trace(tr))
      std::fprintf(stderr, "[obs] wrote trace %s\n", tr);
}

}  // namespace fdks::bench
