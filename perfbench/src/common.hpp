// Shared pieces of the benchmark binary: command-line options, clocks,
// order statistics, seeded inputs, and the result record every workload
// fills in.
//
// The benchmark only talks to the library through its public entry points
// (askit::HMatrix, core::FastDirectSolver / HybridSolver,
// serve::FactorCache / ServeEngine); everything it measures is timed
// here, on the benchmark side, with std::chrono::steady_clock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "la/matrix.hpp"

namespace perfbench {

using fdks::la::index_t;
using fdks::la::Matrix;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string results_dir;  ///< Where the full results JSON goes.
  Clock::time_point start = Clock::now();  ///< The run's clock starts here.
};

/// Seconds of the run's --seconds not yet used.
inline double time_left(const Options& o) { return o.seconds - since(o.start); }

/// Linear-interpolated quantile (q in [0,1]) of a sample; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Best of the repeats of a timed step: the fastest one. On a shared
/// host, neighbours slow whole seconds of a run, so the median of a few
/// repeats lands in either mode while the fastest repeat is steady.
inline double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Number of samples strictly above the q-quantile: a percentile is only
/// reported when at least ten samples lie beyond it.
inline size_t beyond(const std::vector<double>& v, double q) {
  const double t = quantile(v, q);
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [t](double x) { return x > t; }));
}

/// Seeded standard-normal right-hand sides, one per column.
inline Matrix gaussian_block(index_t n, index_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return Matrix::random_gaussian(n, cols, rng);
}

/// Distinct, reproducible streams derived from the workload seed.
inline std::uint64_t substream(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run produces. `metrics` are the end-to-end figures of an
/// untraced run or the per-layer figures of a traced run; `config`,
/// `samples` and `counts` only go to the results file.
struct Result {
  bool correct = true;
  std::vector<std::string> failures;  ///< Why `correct` is false.
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, std::string>> config;  ///< key, JSON.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counts;  ///< Deterministic work counters.

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

}  // namespace perfbench
