// Serving-path benchmark: batched multi-RHS throughput, request
// latency, and overload behavior through the factor cache + admission
// queue (src/serve).
//
//   ./bench_serving [N] [mode] [arrival_us]
//
// Part 1 (always): the headline batching claim — 64 right-hand sides
// solved as ONE blocked solve versus the same 64 solved sequentially
// through the scalar path. The block path streams every factor matrix
// once per batch instead of once per RHS; the speedup is stamped into
// the report as serve.batch_speedup.
//
// Part 2, mode "smoke" (default): deterministic closed-loop serving —
// the engine starts paused, a fixed burst of requests is enqueued, and
// resume() drains it in maximal batches. Then a deterministic overload
// pass: a paused engine with queue_max = 64 is offered 128 requests,
// so EXACTLY 64 are admitted and 64 shed with ServeError(Overloaded).
// Batch composition and shed counts are exactly reproducible, which is
// what makes the serve.* counters (including serve.shed) gateable by
// scripts/bench_compare.py.
//
// Part 4, mode "smoke" (gated with Part 2/3): certified serving — a
// paused engine with VerifyPolicy::Always certifies one deterministic
// 16-wide batch against the factorization-independent Treecode operator
// at a target (1e-8) far below the skeleton gap (~5e-3 at tol 1e-5), so
// every column walks the FULL ladder: first check fails, the default 3
// refinement steps contract ~12x each (ending ~2e-6, decisively above
// target), and the GMRES rung certifies. verify.checks/fail (16 each),
// refine.steps (48) and refine.escalations (16) become exact, gateable
// counters in BENCH_serving.json.
//
// Part 2, mode "open": open-loop arrival — requests are submitted with
// a fixed inter-arrival gap (arrival_us microseconds, default 500)
// while the engine runs, so batch sizes form from actual queueing.
//
// Part 2, mode "overload": open-loop arrival against a BOUNDED queue
// (queue_max = 16, degrade watermark 0.75) at an aggressive default
// gap (arrival_us default 100), driving the engine past saturation.
// Reports the shed rate and the p99 latency of the requests that were
// admitted — the two numbers that characterize behavior at saturation.
//
// Part 5, mode "smoke" (gated): the telemetry-overhead row. 24
// rounds of paused 64-request bursts, one per arm each round — telemetry
// off, and on (event log + SLO tracker + tail-trace sampling with
// tracing live + scrape endpoint) — with the arm that goes first
// alternating from round to round. The gated statistic is the median
// over rounds of the paired on/off ratio of process CPU time
// (CLOCK_PROCESS_CPUTIME_ID, which also counts the telemetry threads)
// from resume() to the last answer: a neighbour on a shared host
// stretches a burst's wall time by up to 2x but not this process's CPU
// time, pairing within a round cancels slow drift, and the median
// ignores the odd disturbed round. The ratio is asserted (<= 1.05,
// relaxed to 1.5 when the median off burst is under a 10 ms floor
// where the clock tick dominates) and stamped, clamped to [0, 10], as
// serve.telemetry_overhead_pct, locking in the cheap-when-idle claim
// under the regression gate. The same part scrapes the live exporter
// and asserts the exposition carries every registered serve.* key,
// that each on-burst request logged exactly its three lifecycle
// events, and that a tail-kept trace renders a request_id flow.
//
// "open" and "overload" are NOT regression-gated (their composition is
// scheduling-dependent); run them by hand for the EXPERIMENTS.md
// serving protocol.
//
// Reported: p50/p99 request latency (serve.request_seconds, v3
// histogram schema), batch-size distribution, shed/degraded tallies,
// the batched-vs-sequential speedup, and the telemetry overhead.
#include "bench_util.hpp"
#include "obs/eventlog.hpp"
#include "obs/export.hpp"
#include "obs/keys.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/factor_cache.hpp"
#include "serve/slo.hpp"
#include "serve/tail_trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace fdks;
using la::index_t;

int main(int argc, char** argv) {
  const index_t n = bench::arg_n(argc, argv, 4096);
  const char* mode = argc > 2 ? argv[2] : "smoke";
  const bool open_loop = std::strcmp(mode, "open") == 0;
  const bool overload = std::strcmp(mode, "overload") == 0;
  long arrival_us = overload ? 100 : 500;
  if (argc > 3) {
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(argv[3], &end, 10);
    if (errno != 0 || end == argv[3] || *end != '\0' || v < 0) {
      std::fprintf(stderr, "invalid arrival_us '%s'\n", argv[3]);
      return 2;
    }
    arrival_us = v;
  }
  constexpr index_t kBatch = 64;
  constexpr index_t kRequests = 128;

  bench::obs_begin();
  bench::print_header(
      "Serving path: factor cache + batched multi-RHS admission queue.\n"
      "Batched B=64 solve vs 64 sequential solves, then request latency\n"
      "and overload shedding through the ServeEngine.");

  data::Dataset ds =
      data::make_synthetic(data::SyntheticKind::Normal, n, 17);
  askit::AskitConfig acfg;
  acfg.leaf_size = 128;
  acfg.max_rank = 64;
  acfg.tol = 1e-5;
  acfg.num_neighbors = 0;
  acfg.seed = 17;
  auto h = bench::phase("setup", [&] {
    return askit::HMatrix(ds.points, kernel::Kernel::gaussian(0.8), acfg);
  });

  core::SolverOptions so;
  so.lambda = 1.0;
  // Serving configuration: GSKS V-blocks (O(1) persistent storage per
  // operator, Table IV). A long-lived factor cache holds many
  // factorizations, so the memory-lean scheme is the deployed choice —
  // and it is exactly where batching pays most, since the per-apply
  // kernel evaluation is shared by the whole block.
  so.scheme = kernel::Scheme::Gsks;
  serve::FactorCache cache(2);
  auto solver = cache.get(h, so);  // Miss: factorizes.
  cache.get(h, so);                // Hit: reuses the factors.

  // ---- Part 1: batched vs sequential, same 64 right-hand sides. ----
  la::Matrix u(n, kBatch);
  for (index_t j = 0; j < kBatch; ++j) {
    const auto col = bench::random_rhs(n, 100 + static_cast<uint64_t>(j));
    std::copy(col.begin(), col.end(), u.col(j));
  }

  bench::Timer t_seq;
  la::Matrix x_seq(n, kBatch);
  for (index_t j = 0; j < kBatch; ++j)
    solver->solve(
        std::span<const double>(u.col(j), static_cast<size_t>(n)),
        std::span<double>(x_seq.col(j), static_cast<size_t>(n)));
  const double sec_seq = t_seq.seconds();

  bench::Timer t_blk;
  la::Matrix x_blk = solver->solve(u);
  const double sec_blk = t_blk.seconds();

  const double diff = la::max_abs_diff(x_seq, x_blk);
  const double speedup = sec_blk > 0.0 ? sec_seq / sec_blk : 0.0;
  obs::add("serve.batch_speedup", speedup);
  std::printf(
      "B=%td RHS    : sequential %8.4fs   batched %8.4fs   speedup "
      "%5.2fx   max|dx| %.1e\n",
      kBatch, sec_seq, sec_blk, speedup, diff);

  // ---- Part 2: request latency through the admission queue. ----
  serve::ServeOptions sopts;
  sopts.batch_max = kBatch;
  sopts.start_paused = !(open_loop || overload);
  if (overload) {
    sopts.queue_max = 16;
    sopts.degrade_watermark = 0.75;
  }
  serve::ServeEngine engine(solver, sopts);

  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(static_cast<size_t>(kRequests));
  index_t shed = 0;
  for (index_t r = 0; r < kRequests; ++r) {
    try {
      futs.push_back(engine.submit(
          bench::random_rhs(n, 500 + static_cast<uint64_t>(r))));
    } catch (const serve::ServeError&) {
      ++shed;  // Overloaded: counted, not retried (open-loop client).
    }
    if (open_loop || overload)
      std::this_thread::sleep_for(std::chrono::microseconds(arrival_us));
  }
  if (sopts.start_paused) engine.resume();
  index_t degraded = 0;
  for (auto& f : futs) {
    try {
      if (f.get().degraded()) ++degraded;
    } catch (const serve::ServeError&) {
      ++shed;  // Expired in queue: also a saturation casualty.
    }
  }
  engine.drain();

  // ---- Part 3 (smoke only): deterministic overload shedding. ----
  // A paused engine with queue_max = 64 offered 128 requests admits
  // exactly 64 and sheds exactly 64 — a closed-loop fixture that makes
  // serve.shed a gateable counter rather than a timing artifact.
  if (!open_loop && !overload) {
    serve::ServeOptions ov;
    ov.batch_max = kBatch;
    ov.queue_max = static_cast<size_t>(kBatch);
    ov.start_paused = true;
    serve::ServeEngine bounded(solver, ov);
    std::vector<std::future<serve::ServeResult>> admitted;
    index_t rejected = 0;
    for (index_t r = 0; r < kRequests; ++r) {
      try {
        admitted.push_back(bounded.submit(
            bench::random_rhs(n, 900 + static_cast<uint64_t>(r))));
      } catch (const serve::ServeError&) {
        ++rejected;
      }
    }
    bounded.resume();
    for (auto& f : admitted) (void)f.get();
    bounded.drain();
    std::printf(
        "overload    : offered %td, admitted %zu, shed %td "
        "(queue_max %td)\n",
        kRequests, admitted.size(), rejected, kBatch);
  }

  // ---- Part 4 (smoke only): certified serving, deterministically. ----
  // One paused 16-wide batch under VerifyPolicy::Always against the
  // Treecode operator. The factor inverts apply() to roundoff but sits
  // ~5e-3 from apply_source() here, and each refinement step contracts
  // the residual by only ~12x — so every column fails the 1e-8 target,
  // exhausts the default 3 refinement steps well above it (~2e-6), and
  // is certified by the GMRES rung. Every rung fires a fixed number of
  // times: the verify.*/refine.* counters are exact, not timing
  // artifacts.
  if (!open_loop && !overload) {
    constexpr index_t kVerifyBatch = 16;
    serve::ServeOptions vo;
    vo.batch_max = kVerifyBatch;
    vo.start_paused = true;
    vo.verify.mode = core::VerifyMode::Always;
    vo.verify.op = core::VerifyPolicy::Operator::Treecode;
    vo.verify.target_residual = 1e-8;
    serve::ServeEngine certified(solver, vo);
    std::vector<std::future<serve::ServeResult>> vfuts;
    for (index_t r = 0; r < kVerifyBatch; ++r)
      vfuts.push_back(certified.submit(
          bench::random_rhs(n, 1300 + static_cast<uint64_t>(r))));
    certified.resume();
    double worst = 0.0;
    for (auto& f : vfuts) {
      const double r = f.get().residual;
      if (r > worst) worst = r;
    }
    certified.drain();
    const serve::ServeEngine::Stats vs = certified.stats();
    std::printf(
        "verify      : %llu certified (worst residual %.1e), %llu "
        "refined, %llu escalated, %llu failed\n",
        static_cast<unsigned long long>(vs.verified), worst,
        static_cast<unsigned long long>(vs.refined),
        static_cast<unsigned long long>(vs.escalated),
        static_cast<unsigned long long>(vs.failed));
  }

  // ---- Part 5 (smoke only): telemetry overhead + live scrape. ----
  // The whole live-telemetry stack (event log, SLO tracker, tail-trace
  // sampling with tracing enabled, scrape endpoint) against the same
  // burst with it all off, interleaved round by round. Deterministic side
  // effects feed the gate: kRounds bursts x 64 requests x 3 lifecycle
  // events of event-log lines, at least one kept trace per fresh sampler
  // (4 each: within one batch latency decreases with submission order,
  // so after the budget fills no later request beats the slowest four),
  // and exactly 2 scrapes.
  bool telemetry_ok = true;
  if (!open_loop && !overload) {
    constexpr index_t kBurst = 64;
    constexpr int kRounds = 24;
    struct BurstTime {
      double wall = 0.0;
      double cpu = 0.0;  ///< Process CPU seconds over the same window.
    };
    const auto process_cpu_seconds = [] {
      timespec ts{};
      clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      return static_cast<double>(ts.tv_sec) +
             1e-9 * static_cast<double>(ts.tv_nsec);
    };
    const auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    auto run_burst = [&](const serve::ServeOptions& topts,
                         uint64_t seed_base) {
      serve::ServeEngine e2(solver, topts);
      std::vector<std::future<serve::ServeResult>> fs;
      fs.reserve(static_cast<size_t>(kBurst));
      for (index_t r = 0; r < kBurst; ++r)
        fs.push_back(e2.submit(
            bench::random_rhs(n, seed_base + static_cast<uint64_t>(r))));
      const double cpu0 = process_cpu_seconds();
      bench::Timer t;
      e2.resume();
      for (auto& f : fs) (void)f.get();
      const BurstTime bt{t.seconds(), process_cpu_seconds() - cpu0};
      e2.drain();
      return bt;
    };

    serve::ServeOptions off;
    off.batch_max = kBurst;
    off.start_paused = true;
    auto event_log = std::make_shared<obs::EventLog>();  // Counting sink.
    auto slo = std::make_shared<serve::SloTracker>([] {
      serve::SloOptions s;
      s.p99_target_seconds = 60.0;  // Generous: never degrades the arm.
      return s;
    }());
    obs::trace::reset();
    obs::Sampler sampler([] {
      obs::SamplerOptions s;
      s.interval = std::chrono::milliseconds(200);
      return s;
    }());
    obs::MetricsExporterOptions mo;
    mo.render.sampler = &sampler;
    obs::MetricsExporter exporter(mo);

    std::shared_ptr<serve::TailTraceSampler> last_tail;
    const auto burst_off = [&](int round) {
      return run_burst(off, 1700 + 100 * static_cast<uint64_t>(round));
    };
    const auto burst_on = [&](int round) {
      serve::ServeOptions on = off;
      on.event_log = event_log;
      on.slo = slo;
      // Fresh tail budget per burst.
      last_tail = std::make_shared<serve::TailTraceSampler>();
      on.tail_trace = last_tail;
      obs::trace::set_enabled(true);
      const BurstTime bt =
          run_burst(on, 2300 + 100 * static_cast<uint64_t>(round));
      obs::trace::set_enabled(false);
      if (last_tail->kept_count() == 0) {
        std::printf("TELEMETRY FAIL: tail sampler kept no traces in round "
                    "%d\n",
                    round);
        telemetry_ok = false;
      }
      return bt;
    };
    std::vector<double> cpu_ratios, off_walls;
    for (int round = 0; round < kRounds; ++round) {
      BurstTime t_off, t_on;
      if (round % 2 == 0) {
        t_off = burst_off(round);
        t_on = burst_on(round);
      } else {
        t_on = burst_on(round);
        t_off = burst_off(round);
      }
      cpu_ratios.push_back(t_on.cpu / t_off.cpu);
      off_walls.push_back(t_off.wall);
    }

    // Live scrape while the process serves: every registered serve.*
    // key must be in the exposition, and the timer tree must carry the
    // serve.batch scope.
    const std::string body = obs::http_get_metrics(exporter.port());
    (void)obs::http_get_metrics(exporter.port());  // scrape #2 (gated).
    for (const obs::keys::KeyInfo& k : obs::keys::kAll) {
      if (k.key.substr(0, 6) != "serve.") continue;
      if (k.kind != obs::keys::Kind::Counter &&
          k.kind != obs::keys::Kind::Gauge &&
          k.kind != obs::keys::Kind::Histogram)
        continue;
      if (body.find(obs::prometheus_metric_name(k.key)) == std::string::npos) {
        std::printf("TELEMETRY FAIL: scrape is missing %.*s\n",
                    static_cast<int>(k.key.size()), k.key.data());
        telemetry_ok = false;
      }
    }
    if (body.find("scope=\"serve.batch\"") == std::string::npos) {
      std::printf("TELEMETRY FAIL: scrape is missing the serve.batch scope\n");
      telemetry_ok = false;
    }

    // Every on-arm request logged admitted + batched + solved.
    const std::uint64_t want_lines =
        static_cast<std::uint64_t>(kRounds) *
        static_cast<std::uint64_t>(kBurst) * 3;
    if (event_log->lines() != want_lines) {
      std::printf("TELEMETRY FAIL: %llu event lines, expected %llu\n",
                  static_cast<unsigned long long>(event_log->lines()),
                  static_cast<unsigned long long>(want_lines));
      telemetry_ok = false;
    }

    // A tail-kept trace whose export renders the request_id flow arrow
    // stamped at submit().
    if (last_tail->kept_count() > 0) {
      const std::string json =
          obs::trace::chrome_trace_json(last_tail->kept().front().data);
      if (json.find("\"ph\":\"s\"") == std::string::npos) {
        std::printf("TELEMETRY FAIL: kept trace has no flow event\n");
        telemetry_ok = false;
      }
    }

    const double ratio = median(cpu_ratios);
    // Below a 10 ms burst the ratio measures the scheduler, not the
    // telemetry; relax the bound there.
    const double burst_off_s = median(off_walls);
    const double bound = burst_off_s >= 0.010 ? 1.05 : 1.50;
    const double pct =
        std::clamp((ratio - 1.0) * 100.0, 0.0, 10.0);
    obs::add("serve.telemetry_overhead_pct", pct);
    std::printf(
        "telemetry   : off burst %.4fs   CPU on/off median ratio %.3f "
        "(bound %.2f)\n",
        burst_off_s, ratio, bound);
    if (ratio > bound) {
      std::printf("TELEMETRY FAIL: overhead ratio %.3f exceeds %.2f\n",
                  ratio, bound);
      telemetry_ok = false;
    }
  }

  const serve::ServeEngine::Stats es = engine.stats();
  const obs::Snapshot snap = obs::snapshot();
  const auto lat = snap.histograms.find("serve.request_seconds");
  const double p50 =
      lat != snap.histograms.end() ? lat->second.quantile(0.50) : 0.0;
  const double p99 =
      lat != snap.histograms.end() ? lat->second.quantile(0.99) : 0.0;
  std::printf(
      "%-12s: %llu requests in %llu batches (max width %td)\n", mode,
      static_cast<unsigned long long>(es.requests),
      static_cast<unsigned long long>(es.batches), es.max_batch);
  std::printf("latency     : p50 %.4fs   p99 %.4fs\n", p50, p99);
  if (overload) {
    std::printf(
        "saturation  : shed rate %.1f%% (%td of %td), degraded %td, "
        "p99 %.4fs at queue_max %zu\n",
        100.0 * static_cast<double>(shed) / static_cast<double>(kRequests),
        shed, kRequests, degraded, p99, sopts.queue_max);
  } else {
    std::printf(
        "\nExpected shape: the batched solve amortizes factor traffic "
        "across the\nblock, so speedup >> 1 (acceptance floor 3x); "
        "closed-loop batches are\nexactly ceil(%td/%td) = %td.\n",
        kRequests, kBatch, (kRequests + kBatch - 1) / kBatch);
  }

  bench::write_bench_json(
      "serving",
      {obs::kv("n", static_cast<long long>(n)),
       obs::kv("batch_max", static_cast<long long>(kBatch)),
       obs::kv("requests", static_cast<long long>(kRequests)),
       obs::kv("mode", mode)});
  return (diff < 1e-10 && telemetry_ok) ? 0 : 1;
}
