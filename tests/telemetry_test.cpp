// Tests for the live-telemetry layer: Prometheus text-format
// conformance of the exporter (escaping, HELP/TYPE lines, cumulative
// `le` buckets), the embedded scrape endpoint under concurrent serving
// load (a TSan target via the `fault` label), the request-lifecycle
// event log's terminal-event invariant across every serving outcome,
// the interval-delta Sampler, gauge last-value merge semantics, the
// tail-trace keep/evict policy, and the SLO tracker's error budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "obs/eventlog.hpp"
#include "obs/export.hpp"
#include "obs/keys.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/slo.hpp"
#include "serve/tail_trace.hpp"

namespace fdks {
namespace {

using askit::AskitConfig;
using core::FastDirectSolver;
using kernel::Kernel;
using la::Matrix;
using la::index_t;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---- Shared fixtures -------------------------------------------------

Matrix clustered_points(index_t d, index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 0.15);
  std::uniform_int_distribution<int> cl(0, 3);
  Matrix centers = Matrix::random_uniform(d, 4, rng, -2.0, 2.0);
  Matrix p(d, n);
  for (index_t j = 0; j < n; ++j) {
    const int c = cl(rng);
    for (index_t k = 0; k < d; ++k) p(k, j) = centers(k, c) + g(rng);
  }
  return p;
}

AskitConfig tight_config() {
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 48;
  cfg.tol = 1e-8;
  cfg.num_neighbors = 8;
  cfg.seed = 7;
  return cfg;
}

std::vector<double> random_rhs(index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> rhs(static_cast<size_t>(n));
  for (auto& v : rhs) v = g(rng);
  return rhs;
}

struct ServeFixture {
  Matrix p;
  askit::HMatrix h;
  std::shared_ptr<const FastDirectSolver> solver;
  explicit ServeFixture(index_t n, uint64_t seed = 31)
      : p(clustered_points(3, n, seed)),
        h(p, Kernel::gaussian(1.0), tight_config()) {
    core::SolverOptions opts;
    opts.lambda = 1.0;
    solver = std::make_shared<const FastDirectSolver>(h, opts);
  }
};

/// An EventLog whose sink collects lines into a vector for assertions.
struct CapturedLog {
  std::shared_ptr<std::mutex> mu = std::make_shared<std::mutex>();
  std::shared_ptr<std::vector<std::string>> lines =
      std::make_shared<std::vector<std::string>>();
  std::shared_ptr<obs::EventLog> log;

  CapturedLog() {
    auto m = mu;
    auto ls = lines;
    log = std::make_shared<obs::EventLog>(
        [m, ls](std::string_view line) {
          std::lock_guard<std::mutex> lock(*m);
          ls->emplace_back(line);
        });
  }

  std::vector<std::string> snapshot() const {
    std::lock_guard<std::mutex> lock(*mu);
    return *lines;
  }
};

/// Pull "field":value (raw JSON token) out of an event line; empty
/// string when absent. Enough JSON parsing for our own writer.
std::string json_field(const std::string& line, const std::string& field) {
  const std::string needle = "\"" + field + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (line[begin] == '"') {
    end = line.find('"', begin + 1);
    return line.substr(begin + 1, end - begin - 1);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

bool is_terminal_event(const std::string& ev) {
  return ev == "solved" || ev == "expired" || ev == "degraded" ||
         ev == "failed" || ev == "shed";
}

// ---- Prometheus conformance ------------------------------------------

TEST(PrometheusFormat, MetricNameMapsNonAlnumToUnderscore) {
  EXPECT_EQ(obs::prometheus_metric_name("serve.request_seconds"),
            "fdks_serve_request_seconds");
  EXPECT_EQ(obs::prometheus_metric_name("a.b-c/d"), "fdks_a_b_c_d");
}

TEST(PrometheusFormat, LabelAndHelpEscaping) {
  EXPECT_EQ(obs::prometheus_escape_label("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
  // HELP escapes backslash and newline but NOT double quotes.
  EXPECT_EQ(obs::prometheus_escape_help("a\\b\"c\nd"), "a\\\\b\"c\\nd");
}

TEST(PrometheusFormat, CounterAndGaugeFamiliesHaveHelpAndType) {
  obs::Snapshot s;
  s.counters["demo.requests"] = 42.0;
  s.gauges["demo.level"] = -3.5;
  obs::PrometheusOptions po;
  po.registry_defaults = false;
  const std::string out = obs::prometheus_render(s, po);

  EXPECT_NE(out.find("# HELP fdks_demo_requests obs counter demo.requests\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE fdks_demo_requests counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nfdks_demo_requests 42\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE fdks_demo_level gauge\n"), std::string::npos);
  EXPECT_NE(out.find("\nfdks_demo_level -3.5\n"), std::string::npos);
}

TEST(PrometheusFormat, HistogramBucketsCumulativeMonotoneWithInf) {
  obs::Snapshot s;
  obs::HistogramSnapshot h;
  // Three samples in distinct buckets plus one non-positive: bucket 0
  // renders as le="0" and the cumulative series must be monotone.
  h.buckets[0] = 1;   // le="0" (non-positive sample)
  h.buckets[40] = 2;  // le=2^-8
  h.buckets[50] = 3;  // le=4
  h.count = 6;
  h.sum = 12.5;
  h.min = -1.0;
  h.max = 4.0;
  s.histograms["demo.lat"] = h;
  obs::PrometheusOptions po;
  po.registry_defaults = false;
  const std::string out = obs::prometheus_render(s, po);

  // Parse every fdks_demo_lat_bucket sample in order.
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  std::istringstream in(out);
  std::string line;
  double count_value = -1.0;
  while (std::getline(in, line)) {
    if (line.rfind("fdks_demo_lat_bucket{le=\"", 0) == 0) {
      const std::size_t q0 = line.find('"') + 1;
      const std::size_t q1 = line.find('"', q0);
      const std::string le = line.substr(q0, q1 - q0);
      const double v = std::stod(line.substr(line.rfind(' ') + 1));
      const double edge =
          le == "+Inf" ? std::numeric_limits<double>::infinity()
                       : std::stod(le);
      buckets.emplace_back(edge, v);
    } else if (line.rfind("fdks_demo_lat_count ", 0) == 0) {
      count_value = std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  ASSERT_EQ(buckets.size(), 4u);  // 3 occupied + mandatory +Inf.
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1].first, buckets[i].first)
        << "le edges must increase";
    EXPECT_LE(buckets[i - 1].second, buckets[i].second)
        << "cumulative counts must be monotone";
  }
  EXPECT_EQ(buckets.front().first, 0.0);
  EXPECT_EQ(buckets.front().second, 1.0);
  EXPECT_TRUE(std::isinf(buckets.back().first));
  EXPECT_EQ(buckets.back().second, 6.0);  // +Inf == _count.
  EXPECT_EQ(count_value, 6.0);
  EXPECT_NE(out.find("fdks_demo_lat_sum 12.5\n"), std::string::npos);
  // Quantile side-family rendered as a gauge.
  EXPECT_NE(out.find("# TYPE fdks_demo_lat_quantile gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("fdks_demo_lat_quantile{quantile=\"0.99\"}"),
            std::string::npos);
}

TEST(PrometheusFormat, RegistryDefaultsStabilizeTheKeySet) {
  // An empty snapshot with defaults on still renders every registered
  // Counter/Gauge/Histogram key — a scraper sees the same series before
  // the first request as after the millionth.
  const std::string out = obs::prometheus_render(obs::Snapshot{});
  for (const obs::keys::KeyInfo& k : obs::keys::kAll) {
    if (k.kind != obs::keys::Kind::Counter &&
        k.kind != obs::keys::Kind::Gauge &&
        k.kind != obs::keys::Kind::Histogram)
      continue;
    EXPECT_NE(out.find(obs::prometheus_metric_name(k.key)),
              std::string::npos)
        << "registered key missing from default render: " << k.key;
  }
  // Registered timer scopes render as zero-valued defaults too.
  EXPECT_NE(out.find("fdks_timer_seconds_total{scope=\"serve.batch\"} 0\n"),
            std::string::npos);
}

TEST(PrometheusFormat, HelpAndTypeAppearExactlyOncePerFamily) {
  obs::Snapshot s;
  s.counters["demo.a"] = 1.0;
  s.counters["demo.b"] = 2.0;
  obs::PrometheusOptions po;
  po.registry_defaults = false;
  const std::string out = obs::prometheus_render(s, po);
  auto count_of = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = out.find(needle); at != std::string::npos;
         at = out.find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count_of("# HELP fdks_demo_a "), 1u);
  EXPECT_EQ(count_of("# TYPE fdks_demo_a "), 1u);
  EXPECT_EQ(count_of("# HELP fdks_demo_b "), 1u);
}

// ---- Exporter HTTP endpoint ------------------------------------------

TEST(MetricsExporter, ServesRenderOverHttpAndCountsScrapes) {
  obs::set_enabled(true);
  obs::reset();
  obs::add("serve.requests", 5.0);

  obs::MetricsExporter exporter;  // Ephemeral port.
  ASSERT_GT(exporter.port(), 0);

  const std::string body = obs::http_get_metrics(exporter.port());
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("fdks_serve_requests 5\n"), std::string::npos);
  EXPECT_EQ(exporter.scrapes(), 1u);

  // The scrape observes itself: the obs.scrapes counter committed
  // before the response went out, so the *next* scrape reports >= 1.
  const std::string second = obs::http_get_metrics(exporter.port());
  EXPECT_NE(second.find("fdks_obs_scrapes "), std::string::npos);
  const std::size_t at = second.find("\nfdks_obs_scrapes ");
  ASSERT_NE(at, std::string::npos);
  const double scrapes = std::stod(second.substr(at + 18));
  EXPECT_GE(scrapes, 2.0);
  exporter.stop();
  obs::set_enabled(false);
}

TEST(MetricsExporter, StopUnblocksAcceptPromptly) {
  auto exporter = std::make_unique<obs::MetricsExporter>();
  const auto t0 = steady_clock::now();
  exporter->stop();
  exporter.reset();
  EXPECT_LT(steady_clock::now() - t0, std::chrono::seconds(5));
}

// Scrape the exporter in a tight loop while a ServeEngine works a burst
// and a Sampler ticks — the TSan job (ctest -L fault) races snapshot()
// against emission on the worker, submitter, sampler, and scrape
// threads.
TEST(MetricsExporter, ConcurrentScrapeUnderServingLoad) {
  obs::set_enabled(true);
  obs::reset();
  ServeFixture fx(192);

  obs::Sampler sampler([] {
    obs::SamplerOptions s;
    s.interval = milliseconds(5);
    return s;
  }());
  obs::MetricsExporterOptions mo;
  mo.render.sampler = &sampler;
  obs::MetricsExporter exporter(mo);

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string body = obs::http_get_metrics(exporter.port());
      EXPECT_NE(body.find("fdks_serve_requests"), std::string::npos);
    }
  });

  {
    serve::ServeOptions so;
    so.batch_max = 4;
    serve::ServeEngine engine(fx.solver, so);
    // Hold the burst until the exporter has counted a scrape: a
    // 24-request burst can otherwise finish before the first one lands.
    engine.pause();
    std::vector<std::future<serve::ServeResult>> futs;
    for (int r = 0; r < 24; ++r)
      futs.push_back(engine.submit(
          random_rhs(fx.h.n(), static_cast<uint64_t>(400 + r))));
    const auto deadline = steady_clock::now() + std::chrono::seconds(10);
    while (exporter.scrapes() < 1 && steady_clock::now() < deadline)
      std::this_thread::sleep_for(milliseconds(1));
    engine.resume();
    for (auto& f : futs) EXPECT_EQ(f.get().code, serve::ServeCode::Ok);
    engine.drain();
  }

  done.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GE(exporter.scrapes(), 1u);
  exporter.stop();
  sampler.stop();
  obs::set_enabled(false);
}

// ---- Event log -------------------------------------------------------

TEST(EventLog, RejectsUnregisteredEventNames) {
  obs::EventLog log;
  EXPECT_THROW(log.emit(1, "totally_new_event"), std::invalid_argument);
  EXPECT_TRUE(obs::is_registered_event("solved"));
  EXPECT_TRUE(obs::is_registered_event(obs::events::kEvShed));
  EXPECT_FALSE(obs::is_registered_event("solvedd"));
}

TEST(EventLog, LineCarriesTimestampIdAndTypedFields) {
  CapturedLog cap;
  cap.log->emit(7, obs::events::kEvSolved,
                {{"residual", 3.25e-9},
                 {"verified", true},
                 {"code", "ok"}});
  const auto lines = cap.snapshot();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '\n');  // Sink lines arrive ready for JSONL.
  EXPECT_EQ(line[line.size() - 2], '}');
  EXPECT_EQ(json_field(line, "request_id"), "7");
  EXPECT_EQ(json_field(line, "event"), "solved");
  EXPECT_EQ(json_field(line, "verified"), "true");
  EXPECT_EQ(json_field(line, "code"), "ok");
  EXPECT_GT(std::stod(json_field(line, "ts")), 0.0);
  EXPECT_NEAR(std::stod(json_field(line, "residual")), 3.25e-9, 1e-12);
  EXPECT_EQ(cap.log->lines(), 1u);
}

TEST(EventLog, RequestIdsAreProcessGlobalAndMonotone) {
  const std::uint64_t a = obs::next_request_id();
  const std::uint64_t b = obs::next_request_id();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, a);
}

/// Group lifecycle lines by request id, asserting each id saw exactly
/// one terminal event; returns id -> terminal event name.
std::map<std::uint64_t, std::string> terminal_events(
    const std::vector<std::string>& lines) {
  std::map<std::uint64_t, std::string> terminal;
  for (const std::string& line : lines) {
    const std::string ev = json_field(line, "event");
    const std::uint64_t id = std::stoull(json_field(line, "request_id"));
    EXPECT_TRUE(obs::is_registered_event(ev)) << line;
    if (!is_terminal_event(ev)) continue;
    EXPECT_EQ(terminal.count(id), 0u)
        << "second terminal event for request " << id << ": " << line;
    terminal[id] = ev;
  }
  return terminal;
}

// Every serving outcome — ok, shed, expired, poison, degraded, verified
// — produces exactly one terminal event per submitted request.
TEST(EventLog, EveryLifecyclePathEmitsExactlyOneTerminalEvent) {
  ServeFixture fx(192);

  // -- ok + shed: queue_max 2 on a paused engine, 5 offered. --
  {
    CapturedLog cap;
    serve::ServeOptions so;
    so.start_paused = true;
    so.queue_max = 2;
    so.event_log = cap.log;
    serve::ServeEngine engine(fx.solver, so);
    std::vector<std::future<serve::ServeResult>> futs;
    int shed = 0;
    for (int r = 0; r < 5; ++r) {
      try {
        futs.push_back(engine.submit(
            random_rhs(fx.h.n(), static_cast<uint64_t>(500 + r))));
      } catch (const serve::ServeError&) {
        ++shed;
      }
    }
    engine.resume();
    for (auto& f : futs) (void)f.get();
    engine.drain();
    EXPECT_EQ(shed, 3);
    const auto terminal = terminal_events(cap.snapshot());
    ASSERT_EQ(terminal.size(), 5u);  // One terminal per offered request.
    int solved = 0, shed_ev = 0;
    for (const auto& [id, ev] : terminal) {
      if (ev == "solved") ++solved;
      if (ev == "shed") ++shed_ev;
    }
    EXPECT_EQ(solved, 2);
    EXPECT_EQ(shed_ev, 3);
  }

  // -- expired: already past its deadline at submit. --
  {
    CapturedLog cap;
    serve::ServeOptions so;
    so.start_paused = true;
    so.event_log = cap.log;
    serve::ServeEngine engine(fx.solver, so);
    auto doomed = engine.submit(random_rhs(fx.h.n(), 510),
                                steady_clock::now() - milliseconds(1));
    engine.resume();
    EXPECT_THROW((void)doomed.get(), serve::ServeError);
    engine.drain();
    const auto terminal = terminal_events(cap.snapshot());
    ASSERT_EQ(terminal.size(), 1u);
    EXPECT_EQ(terminal.begin()->second, "expired");
  }

  // -- poison, validating: rejected at submit as failed{invalid_rhs}. --
  // -- poison, non-validating: fails in-batch as failed{poison_rhs}
  //    while batchmates solve. --
  {
    CapturedLog cap;
    serve::ServeOptions so;
    so.event_log = cap.log;
    serve::ServeEngine validating(fx.solver, so);
    std::vector<double> bad = random_rhs(fx.h.n(), 511);
    bad[3] = std::nan("");
    EXPECT_THROW((void)validating.submit(std::vector<double>(bad)),
                 serve::ServeError);
    validating.drain();

    serve::ServeOptions batch_so;
    batch_so.start_paused = true;
    batch_so.validate_rhs = false;
    batch_so.event_log = cap.log;
    serve::ServeEngine engine(fx.solver, batch_so);
    auto poisoned = engine.submit(std::vector<double>(bad));
    auto fine = engine.submit(random_rhs(fx.h.n(), 512));
    engine.resume();
    EXPECT_THROW((void)poisoned.get(), serve::ServeError);
    EXPECT_EQ(fine.get().code, serve::ServeCode::Ok);
    engine.drain();

    const auto terminal = terminal_events(cap.snapshot());
    ASSERT_EQ(terminal.size(), 3u);
    int failed = 0, solved = 0;
    for (const auto& [id, ev] : terminal) {
      if (ev == "failed") ++failed;
      if (ev == "solved") ++solved;
    }
    EXPECT_EQ(failed, 2);  // invalid_rhs reject + in-batch poison.
    EXPECT_EQ(solved, 1);
  }

  // -- degraded: queue past the watermark at packing time. --
  {
    CapturedLog cap;
    serve::ServeOptions so;
    so.start_paused = true;
    so.batch_max = 8;
    so.queue_max = 8;
    so.degrade_watermark = 0.5;
    so.event_log = cap.log;
    serve::ServeEngine engine(fx.solver, so);
    std::vector<std::future<serve::ServeResult>> futs;
    for (int r = 0; r < 6; ++r)
      futs.push_back(engine.submit(
          random_rhs(fx.h.n(), static_cast<uint64_t>(520 + r))));
    engine.resume();
    int degraded = 0;
    for (auto& f : futs)
      if (f.get().code == serve::ServeCode::Degraded) ++degraded;
    engine.drain();
    EXPECT_EQ(degraded, 6);
    const auto terminal = terminal_events(cap.snapshot());
    ASSERT_EQ(terminal.size(), 6u);
    for (const auto& [id, ev] : terminal) EXPECT_EQ(ev, "degraded");
  }

  // -- verified: certification stamps solved{verified:true}. --
  {
    CapturedLog cap;
    serve::ServeOptions so;
    so.event_log = cap.log;
    so.verify.mode = core::VerifyMode::Always;
    so.verify.target_residual = 1e-6;
    serve::ServeEngine engine(fx.solver, so);
    EXPECT_EQ(engine.submit(random_rhs(fx.h.n(), 530)).get().code,
              serve::ServeCode::Ok);
    engine.drain();
    const auto lines = cap.snapshot();
    bool saw_verified = false;
    for (const std::string& line : lines) {
      if (json_field(line, "event") != "solved") continue;
      EXPECT_EQ(json_field(line, "verified"), "true") << line;
      EXPECT_GT(std::stod(json_field(line, "residual")), 0.0) << line;
      saw_verified = true;
    }
    EXPECT_TRUE(saw_verified);
  }
}

// Admitted requests carry admitted -> batched{batch_id,width} -> terminal
// in that order, with a consistent batch width.
TEST(EventLog, AdmittedBatchedTerminalOrderingWithBatchMetadata) {
  ServeFixture fx(192);
  CapturedLog cap;
  serve::ServeOptions so;
  so.start_paused = true;
  so.batch_max = 8;
  so.event_log = cap.log;
  serve::ServeEngine engine(fx.solver, so);
  std::vector<std::future<serve::ServeResult>> futs;
  for (int r = 0; r < 4; ++r)
    futs.push_back(engine.submit(
        random_rhs(fx.h.n(), static_cast<uint64_t>(540 + r))));
  engine.resume();
  for (auto& f : futs) (void)f.get();
  engine.drain();

  const auto lines = cap.snapshot();
  std::map<std::uint64_t, std::vector<std::string>> per_request;
  for (const std::string& line : lines) {
    per_request[std::stoull(json_field(line, "request_id"))].push_back(line);
  }
  ASSERT_EQ(per_request.size(), 4u);
  for (const auto& [id, evs] : per_request) {
    ASSERT_EQ(evs.size(), 3u) << "request " << id;
    EXPECT_EQ(json_field(evs[0], "event"), "admitted");
    EXPECT_EQ(json_field(evs[1], "event"), "batched");
    EXPECT_EQ(json_field(evs[1], "width"), "4");
    EXPECT_EQ(json_field(evs[2], "event"), "solved");
    // The same batch id rides the batched and terminal lines.
    EXPECT_EQ(json_field(evs[1], "batch_id"), json_field(evs[2], "batch_id"));
  }
}

// ---- Sampler ---------------------------------------------------------

TEST(Sampler, DeltasSumToCounterTotalsAndGaugesAreLevels) {
  obs::set_enabled(true);
  obs::reset();
  obs::add("demo.sampled", 5.0);
  obs::gauge("demo.level", 11.0);
  {
    obs::Sampler sampler([] {
      obs::SamplerOptions s;
      s.interval = milliseconds(20);
      return s;
    }());
    std::this_thread::sleep_for(milliseconds(35));
    obs::add("demo.sampled", 3.0);
    obs::gauge("demo.level", 13.0);
    sampler.stop();

    const std::vector<obs::Sample> samples = sampler.samples();
    ASSERT_FALSE(samples.empty());
    double total = 0.0;
    for (const obs::Sample& s : samples) {
      EXPECT_GT(s.interval_seconds, 0.0);
      const auto it = s.counter_deltas.find("demo.sampled");
      if (it != s.counter_deltas.end()) total += it->second;
    }
    // The sampler diffs against the counters at construction, so only
    // the +3 emitted during its life shows up as deltas.
    EXPECT_DOUBLE_EQ(total, 3.0);
    obs::Sample latest;
    ASSERT_TRUE(sampler.latest(latest));
    EXPECT_DOUBLE_EQ(latest.gauges.at("demo.level"), 13.0);
    EXPECT_GT(latest.rss_bytes, 0u);
  }
  obs::set_enabled(false);
}

TEST(Sampler, RingIsBoundedByCapacity) {
  obs::set_enabled(true);
  obs::reset();
  obs::Sampler sampler([] {
    obs::SamplerOptions s;
    s.interval = milliseconds(1);
    s.capacity = 4;
    return s;
  }());
  std::this_thread::sleep_for(milliseconds(40));
  sampler.stop();
  EXPECT_LE(sampler.samples().size(), 4u);
  EXPECT_GT(sampler.ticks(), 4u);
  obs::set_enabled(false);
}

// ---- Gauges ----------------------------------------------------------

TEST(Gauge, LastValueWinsAcrossThreads) {
  obs::set_enabled(true);
  obs::reset();
  obs::gauge("demo.cross", 1.0);
  std::thread([&] { obs::gauge("demo.cross", 2.0); }).join();
  EXPECT_DOUBLE_EQ(obs::snapshot().gauges.at("demo.cross"), 2.0);
  // A later set on the original thread supersedes the other thread's.
  obs::gauge("demo.cross", 3.0);
  EXPECT_DOUBLE_EQ(obs::snapshot().gauges.at("demo.cross"), 3.0);
  obs::set_enabled(false);
}

// ---- Tail-trace sampling ---------------------------------------------

struct TraceGuard {
  TraceGuard() {
    obs::trace::set_enabled(true);
    obs::trace::reset();
  }
  ~TraceGuard() {
    obs::trace::set_enabled(false);
    obs::trace::reset();
  }
};

TEST(TailTrace, KeepsLatencyTailAndAlwaysKeepsErrors) {
  TraceGuard guard;
  const std::uint64_t t1 = 1u << 20;  // Any window; no events needed.
  serve::TailTraceSampler tail([] {
    serve::TailTraceOptions o;
    o.keep = 2;
    return o;
  }());

  EXPECT_TRUE(tail.observe(1, 0.5, false, 0, t1));   // Room.
  EXPECT_TRUE(tail.observe(2, 0.3, false, 0, t1));   // Room.
  EXPECT_FALSE(tail.observe(3, 0.1, false, 0, t1));  // Faster than both.
  EXPECT_TRUE(tail.observe(4, 0.4, false, 0, t1));   // Evicts the 0.3.
  ASSERT_EQ(tail.kept_count(), 2u);
  auto kept = tail.kept();
  EXPECT_EQ(kept[0].request_id, 1u);  // Slowest first.
  EXPECT_EQ(kept[1].request_id, 4u);

  // An error keeps even when fast, evicting the fastest non-error.
  EXPECT_TRUE(tail.observe(5, 0.01, true, 0, t1));
  kept = tail.kept();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].request_id, 1u);
  EXPECT_EQ(kept[1].request_id, 5u);
  EXPECT_TRUE(kept[1].error);
}

TEST(TailTrace, MinLatencyFloorDropsFastSuccesses) {
  TraceGuard guard;
  serve::TailTraceSampler tail([] {
    serve::TailTraceOptions o;
    o.keep = 4;
    o.min_latency_seconds = 0.1;
    return o;
  }());
  EXPECT_FALSE(tail.observe(1, 0.05, false, 0, 1));
  EXPECT_TRUE(tail.observe(2, 0.2, false, 0, 1));
  EXPECT_TRUE(tail.observe(3, 0.01, true, 0, 1));  // Errors bypass it.
  EXPECT_EQ(tail.kept_count(), 2u);
}

TEST(TailTrace, KeptSliceIsWindowFilteredPlusRequestFlows) {
  TraceGuard guard;
  obs::trace::instant("before_window");
  obs::trace::flow_send(77, 0, 0);
  const auto mark = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        steady_clock::now().time_since_epoch())
                        .count();
  obs::trace::instant("inside_window");

  serve::TailTraceSampler tail;
  // Window opens at `mark`: the first instant predates it and must be
  // filtered out, but the flow event — also before the window — is
  // stamped with the request id and stays regardless of its timestamp.
  ASSERT_TRUE(tail.observe(77, 0.25, false,
                           static_cast<std::uint64_t>(mark),
                           static_cast<std::uint64_t>(mark) + (1u << 30)));
  const auto kept = tail.kept();
  ASSERT_EQ(kept.size(), 1u);
  bool saw_inside = false, saw_before = false, saw_flow = false;
  for (const obs::trace::ThreadTrace& t : kept[0].data.threads) {
    for (const obs::trace::Event& e : t.events) {
      if (std::string_view(e.name) == "inside_window") saw_inside = true;
      if (std::string_view(e.name) == "before_window") saw_before = true;
      if (e.type == obs::trace::Event::kFlowSend && e.id == 77) {
        saw_flow = true;
      }
    }
  }
  EXPECT_TRUE(saw_inside);
  EXPECT_FALSE(saw_before);
  EXPECT_TRUE(saw_flow);

  const std::string json = obs::trace::chrome_trace_json(kept[0].data);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
}

// An engine wired with a tail sampler keeps at least one trace whose
// export carries the request_id flow minted at submit().
TEST(TailTrace, EngineKeepsFlowStampedTraces) {
  TraceGuard guard;
  ServeFixture fx(192);
  auto tail = std::make_shared<serve::TailTraceSampler>();
  serve::ServeOptions so;
  so.start_paused = true;
  so.tail_trace = tail;
  serve::ServeEngine engine(fx.solver, so);
  std::vector<std::future<serve::ServeResult>> futs;
  for (int r = 0; r < 4; ++r)
    futs.push_back(engine.submit(
        random_rhs(fx.h.n(), static_cast<uint64_t>(550 + r))));
  engine.resume();
  for (auto& f : futs) (void)f.get();
  engine.drain();

  ASSERT_GT(tail->kept_count(), 0u);
  const auto kept = tail->kept();
  const std::string json = obs::trace::chrome_trace_json(kept[0].data);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos)
      << "kept trace must render the submit->batch flow arrow";
  EXPECT_NE(json.find("serve.batch"), std::string::npos);
}

// ---- SLO tracker -----------------------------------------------------

TEST(SloTracker, AbstainsBelowMinSamples) {
  serve::SloTracker slo([] {
    serve::SloOptions o;
    o.p99_target_seconds = 0.001;
    o.min_samples = 32;
    return o;
  }());
  for (int i = 0; i < 31; ++i) slo.record(10.0, true);  // Terrible...
  const auto st = slo.status();
  EXPECT_EQ(st.samples, 31u);
  EXPECT_DOUBLE_EQ(st.budget_remaining, 1.0);  // ...but below the floor.
  EXPECT_FALSE(st.breached);
  EXPECT_FALSE(slo.degrade_recommended());
}

TEST(SloTracker, P99NearestRankAndLatencyBudget) {
  serve::SloTracker slo([] {
    serve::SloOptions o;
    o.p99_target_seconds = 0.2;
    o.min_samples = 10;
    o.window = 100;
    return o;
  }());
  // 100 samples 0.001..0.100: nearest-rank p99 = 99th value = 0.099.
  for (int i = 1; i <= 100; ++i)
    slo.record(static_cast<double>(i) * 0.001, false);
  const auto st = slo.status();
  EXPECT_EQ(st.samples, 100u);
  EXPECT_NEAR(st.p99_seconds, 0.099, 1e-12);
  EXPECT_NEAR(st.budget_remaining, 1.0 - 0.099 / 0.2, 1e-9);
  EXPECT_FALSE(st.breached);
}

TEST(SloTracker, ErrorRateBreachRecommendsDegrade) {
  serve::SloTracker slo([] {
    serve::SloOptions o;
    o.max_error_rate = 0.1;
    o.min_samples = 10;
    return o;
  }());
  for (int i = 0; i < 40; ++i) slo.record(0.01, i % 2 == 0);  // 50% errors.
  const auto st = slo.status();
  EXPECT_NEAR(st.error_rate, 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(st.budget_remaining, 0.0);
  EXPECT_TRUE(st.breached);
  EXPECT_TRUE(slo.degrade_recommended());
}

TEST(SloTracker, WindowForgetsOldObservations) {
  serve::SloTracker slo([] {
    serve::SloOptions o;
    o.max_error_rate = 0.5;
    o.window = 16;
    o.min_samples = 8;
    return o;
  }());
  for (int i = 0; i < 16; ++i) slo.record(0.01, true);
  EXPECT_TRUE(slo.status().breached);
  // 16 clean observations push every error out of the window.
  for (int i = 0; i < 16; ++i) slo.record(0.01, false);
  const auto st = slo.status();
  EXPECT_DOUBLE_EQ(st.error_rate, 0.0);
  EXPECT_FALSE(st.breached);
}

// An engine whose SLO tracker reports a breach serves degraded batches
// even though the queue never crosses the watermark.
TEST(SloTracker, BreachedSloDegradesTheEngine) {
  ServeFixture fx(192);
  auto slo = std::make_shared<serve::SloTracker>([] {
    serve::SloOptions o;
    o.max_error_rate = 0.1;
    o.min_samples = 4;
    return o;
  }());
  for (int i = 0; i < 8; ++i) slo->record(0.01, true);  // Pre-breached.
  ASSERT_TRUE(slo->degrade_recommended());

  serve::ServeOptions so;
  so.slo = slo;
  serve::ServeEngine engine(fx.solver, so);
  const serve::ServeResult res =
      engine.submit(random_rhs(fx.h.n(), 560)).get();
  EXPECT_EQ(res.code, serve::ServeCode::Degraded);
  engine.drain();
}

}  // namespace
}  // namespace fdks
