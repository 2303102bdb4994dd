// fdks_perfbench: runs one benchmark workload and prints its metrics.
//
//   fdks_perfbench --workload <train_cv|train_hybrid|serve_open|serve_burst>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--results-dir <dir>]
//
// The OpenMP team size comes from OMP_NUM_THREADS (run.py sets it).
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). The full record — host, configuration, raw
// samples, work counts and, when traced, every span — goes to
// <results-dir>/<workload>-seed<n>-trace<k>.json. A run whose answers
// fail the correctness gate prints no metrics and exits 1.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fdks_perfbench: %s\nusage: fdks_perfbench --workload "
               "<train_cv|train_hybrid|serve_open|serve_burst> --seed <n> "
               "--seconds <s> --trace <0|1> [--results-dir <dir>]\n",
               why);
  std::exit(2);
}

double parse_number(const char* flag, const char* s) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v) || v < 0)
    usage((std::string("bad value for ") + flag).c_str());
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_number("--seed", v));
    } else if (flag == "--seconds") {
      o.seconds = parse_number("--seconds", v);
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      o.trace = v[0] == '1';
      have_trace = true;
    } else if (flag == "--results-dir") {
      o.results_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty() || !have_trace) usage("--workload and --trace are required");
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Result& r) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

/// Comma-separated "key": value members.
template <class Map, class F>
std::string members(const Map& m, F&& value) {
  std::string out;
  for (const auto& [k, v] : m) {
    if (!out.empty()) out += ", ";
    out += quoted(k);
    out += ": ";
    out += value(v);
  }
  return out;
}

void write_results(const Options& o, const Result& r) {
  std::string failures;
  for (const auto& f : r.failures) {
    if (!failures.empty()) failures += ", ";
    failures += quoted(f);
  }
  const auto series = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i) out += ",";
      out += number(v[i]);
    }
    return out + "]";
  };
  std::string j = "{\n\"workload\": " + quoted(o.workload);
  j += ",\n\"seed\": " + std::to_string(o.seed);
  j += ",\n\"seconds\": " + number(o.seconds);
  j += std::string(",\n\"trace\": ") + (o.trace ? "true" : "false");
  j += std::string(",\n\"correct\": ") + (r.correct ? "true" : "false");
  j += ",\n\"failures\": [" + failures + "]";
  j += ",\n\"attempted\": " + std::to_string(r.attempted);
  j += ",\n\"failed\": " + std::to_string(r.failed);
  j += ",\n\"config\": {" +
       members(r.config, [](const std::string& v) { return v; }) + "}";
  j += ",\n\"metrics\": " + metrics_json(r);
  j += ",\n\"counts\": {" + members(r.counts, number) + "}";
  j += ",\n\"samples\": {" + members(r.samples, series) + "}";
  j += ",\n\"spans\": " + perfbench::tracer().to_json() + "\n}\n";
  const std::string path = (o.results_dir.empty() ? "." : o.results_dir) +
                           "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  f << j;
  if (!f) std::fprintf(stderr, "fdks_perfbench: cannot write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Result r;
  try {
    if (opts.workload == "train_cv") {
      r = perfbench::run_train_cv(opts);
    } else if (opts.workload == "train_hybrid") {
      r = perfbench::run_train_hybrid(opts);
    } else if (opts.workload == "serve_open") {
      r = perfbench::run_serve_open(opts);
    } else if (opts.workload == "serve_burst") {
      r = perfbench::run_serve_burst(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fdks_perfbench: %s: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& [name, m] : r.metrics)
    r.check(std::isfinite(m.value), "metric " + name + " is not finite");

  // Probes last: their copy arrays must not count toward peak_rss_mb.
  for (auto& kv : perfbench::host_record()) r.config.push_back(kv);
  write_results(opts, r);

  for (const auto& why : r.failures)
    std::fprintf(stderr, "fdks_perfbench: correctness: %s\n", why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false", r.attempted, r.failed,
              r.correct ? metrics_json(r).c_str() : "{}");
  return r.correct ? 0 : 1;
}
