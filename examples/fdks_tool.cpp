// fdks_tool — command-line driver for the library.
//
//   fdks_tool solve  [--data KIND] [--n N] [--h H] [--lambda L]
//                    [--tau T] [--leaf M] [--rank S] [--restrict LVL]
//                    [--hybrid] [--compact-w] [--scheme gemv|gemm|gsks]
//                    [--checkpoint-dir DIR] [--ranks P]
//   fdks_tool krr    [--data KIND] [--n N] [--h H] [--lambda L] ...
//   fdks_tool info   [--data KIND] [--n N] [--h H] [--tau T] ...
//   fdks_tool gen    [--data KIND] [--n N] [--out PATH]
//                    (format from extension: .svm | .csv | .bin)
//
// KIND: covtype | susy | mnist | higgs | mri | normal.
// `solve` factorizes lambda I + K~ and solves a random system, printing
// timings/residuals; `krr` trains and evaluates a classifier; `info`
// prints compression statistics (ranks, frontier, memory); `gen` writes
// a synthetic dataset to disk for external tooling.
//
// --checkpoint-dir DIR makes `solve` restartable: each pipeline stage
// (compress -> factorize -> solve) persists its result into DIR
// (atomic, checksummed; see src/ckpt) and a re-run resumes from the
// last completed stage. Corrupt or stale checkpoints are skipped with a
// diagnostic and the stage re-runs.
//
// Observability flags (any command):
//   --profile              aggregate timer tree + counters on exit.
//   --trace FILE.json      event trace in Chrome trace-event format
//                          (open in https://ui.perfetto.dev). With
//                          --ranks P the combined file keeps the
//                          cross-rank flow arrows and per-rank files
//                          FILE.rank<k>.json are written alongside; the
//                          critical-path report prints after the run.
//   --metrics-interval MS  periodic RSS / trace-volume sampler line on
//                          stderr while the command runs.
//   --ranks P              run `solve` distributed over P mpisim ranks
//                          (P a power of 2); with --hybrid the level
//                          restriction is raised to log2(P) so the
//                          frontier does not span ranks.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "askit/serialize.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/dist_hybrid.hpp"
#include "core/dist_solver.hpp"
#include "core/hybrid.hpp"
#include "core/solver.hpp"
#include "data/io.hpp"
#include "data/preprocess.hpp"
#include "krr/krr.hpp"
#include "mpisim/runtime.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace {

using namespace fdks;
using la::index_t;

struct Args {
  std::string cmd;
  data::SyntheticKind kind = data::SyntheticKind::Normal;
  index_t n = 4096;
  double h = 1.0;
  double lambda = 1.0;
  double tau = 1e-5;
  index_t leaf = 128;
  index_t rank = 128;
  index_t restrict_level = 0;
  bool hybrid = false;
  bool compact_w = false;
  bool spd_leaves = false;
  kernel::Scheme scheme = kernel::Scheme::StoredGemv;
  uint64_t seed = 42;
  std::string out;
  std::string checkpoint_dir;
  bool profile = false;
  int ranks = 1;
  std::string trace;
  int metrics_interval_ms = 0;
  bool verify = false;  ///< Certify the answer (solve command only).
};

int usage() {
  std::fprintf(stderr,
               "usage: fdks_tool <solve|krr|info|gen> [--data "
               "covtype|susy|mnist|higgs|mri|normal]\n"
               "       [--n N] [--h H] [--lambda L] [--tau T] [--leaf M] "
               "[--rank S]\n"
               "       [--restrict LVL] [--hybrid] [--compact-w] "
               "[--spd-leaves]\n"
               "       [--scheme gemv|gemm|gsks] [--seed X] [--profile]\n"
               "       [--checkpoint-dir DIR] [--ranks P] [--verify]\n"
               "       [--trace FILE.json] [--metrics-interval MS]\n");
  return 2;
}

/// Checked numeric flag parsing: reports the offending flag and value
/// instead of silently producing zero (lint rule BAN-PARSE).
bool parse_num(const char* flag, const char* v, long long& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: not a whole number: '%s'\n", flag, v);
    return false;
  }
  return true;
}

bool parse_real(const char* flag, const char* v, double& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: not a number: '%s'\n", flag, v);
    return false;
  }
  return true;
}

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.cmd = argv[1];
  if (a.cmd != "solve" && a.cmd != "krr" && a.cmd != "info" &&
      a.cmd != "gen")
    return false;
  const std::map<std::string, data::SyntheticKind> kinds = {
      {"covtype", data::SyntheticKind::CovtypeLike},
      {"susy", data::SyntheticKind::SusyLike},
      {"mnist", data::SyntheticKind::MnistLike},
      {"higgs", data::SyntheticKind::HiggsLike},
      {"mri", data::SyntheticKind::MriLike},
      {"normal", data::SyntheticKind::Normal},
  };
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--hybrid") {
      a.hybrid = true;
    } else if (flag == "--compact-w") {
      a.compact_w = true;
    } else if (flag == "--spd-leaves") {
      a.spd_leaves = true;
    } else if (flag == "--profile") {
      a.profile = true;
    } else if (flag == "--verify") {
      a.verify = true;
    } else if (flag == "--data") {
      const char* v = need("--data");
      if (!v || !kinds.count(v)) return false;
      a.kind = kinds.at(v);
    } else if (flag == "--scheme") {
      const char* v = need("--scheme");
      if (!v) return false;
      if (!std::strcmp(v, "gemv")) a.scheme = kernel::Scheme::StoredGemv;
      else if (!std::strcmp(v, "gemm")) a.scheme = kernel::Scheme::ReevalGemm;
      else if (!std::strcmp(v, "gsks")) a.scheme = kernel::Scheme::Gsks;
      else return false;
    } else if (flag == "--n") {
      const char* v = need("--n");
      if (!v) return false;
      long long t = 0;
      if (!parse_num("--n", v, t)) return false;
      a.n = static_cast<index_t>(t);
    } else if (flag == "--h") {
      const char* v = need("--h");
      if (!v) return false;
      if (!parse_real("--h", v, a.h)) return false;
    } else if (flag == "--lambda") {
      const char* v = need("--lambda");
      if (!v) return false;
      if (!parse_real("--lambda", v, a.lambda)) return false;
    } else if (flag == "--tau") {
      const char* v = need("--tau");
      if (!v) return false;
      if (!parse_real("--tau", v, a.tau)) return false;
    } else if (flag == "--leaf") {
      const char* v = need("--leaf");
      if (!v) return false;
      long long t = 0;
      if (!parse_num("--leaf", v, t)) return false;
      a.leaf = static_cast<index_t>(t);
    } else if (flag == "--rank") {
      const char* v = need("--rank");
      if (!v) return false;
      long long t = 0;
      if (!parse_num("--rank", v, t)) return false;
      a.rank = static_cast<index_t>(t);
    } else if (flag == "--restrict") {
      const char* v = need("--restrict");
      if (!v) return false;
      long long t = 0;
      if (!parse_num("--restrict", v, t)) return false;
      a.restrict_level = static_cast<index_t>(t);
    } else if (flag == "--seed") {
      const char* v = need("--seed");
      if (!v) return false;
      long long t = 0;
      if (!parse_num("--seed", v, t)) return false;
      a.seed = static_cast<uint64_t>(t);
    } else if (flag == "--out") {
      const char* v = need("--out");
      if (!v) return false;
      a.out = v;
    } else if (flag == "--checkpoint-dir") {
      const char* v = need("--checkpoint-dir");
      if (!v) return false;
      a.checkpoint_dir = v;
    } else if (flag == "--ranks") {
      const char* v = need("--ranks");
      if (!v) return false;
      long long t = 0;
      if (!parse_num("--ranks", v, t)) return false;
      a.ranks = static_cast<int>(t);
      if (a.ranks < 1 || (a.ranks & (a.ranks - 1)) != 0) {
        std::fprintf(stderr, "--ranks must be a power of 2 (got %s)\n", v);
        return false;
      }
    } else if (flag == "--trace") {
      const char* v = need("--trace");
      if (!v) return false;
      a.trace = v;
    } else if (flag == "--metrics-interval") {
      const char* v = need("--metrics-interval");
      if (!v) return false;
      long long t = 0;
      if (!parse_num("--metrics-interval", v, t)) return false;
      a.metrics_interval_ms = static_cast<int>(t);
      if (a.metrics_interval_ms <= 0) {
        std::fprintf(stderr, "--metrics-interval needs a positive ms value\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

askit::AskitConfig askit_config(const Args& a) {
  askit::AskitConfig cfg;
  cfg.leaf_size = a.leaf;
  cfg.max_rank = a.rank;
  cfg.tol = a.tau;
  cfg.num_neighbors = 0;
  cfg.level_restriction = a.restrict_level;
  cfg.seed = a.seed;
  return cfg;
}

/// Compress stage with checkpoint resume: reload the serialized HMatrix
/// when a valid "compress" marker exists, else build and persist it.
askit::HMatrix build_or_resume_hmatrix(const Args& a,
                                       const data::Dataset& ds) {
  if (!a.checkpoint_dir.empty()) {
    ckpt::ensure_dir(a.checkpoint_dir);
    const std::string hpath = ckpt::join(a.checkpoint_dir, "hmatrix.bin");
    std::string diag;
    if (ckpt::stage_done(a.checkpoint_dir, "compress", nullptr, &diag) &&
        ckpt::file_exists(hpath)) {
      std::printf("checkpoint: compress stage done, loading %s\n",
                  hpath.c_str());
      return askit::load_hmatrix(hpath);
    }
    if (!diag.empty())
      std::printf("checkpoint: compress stage re-runs (%s)\n", diag.c_str());
    askit::HMatrix h(ds.points, kernel::Kernel::gaussian(a.h),
                     askit_config(a));
    askit::save_hmatrix(hpath, h);
    ckpt::mark_stage(a.checkpoint_dir, "compress", hpath);
    return h;
  }
  return askit::HMatrix(ds.points, kernel::Kernel::gaussian(a.h),
                        askit_config(a));
}

/// FactorStatus / SolveStatus are [[nodiscard]]: surface any recorded
/// degradation (diagonal shifts, escalation, non-convergence) instead
/// of silently printing a residual that looks fine.
void warn_if_degraded(const core::FactorStatus& fs) {
  if (fs.degraded())
    std::fprintf(stderr, "warning: %s\n", fs.message().c_str());
}

void warn_if_degraded(const core::SolveStatus& ss) {
  if (ss.degraded())
    std::fprintf(stderr, "warning: %s\n", ss.message().c_str());
}

/// Distributed solve over a.ranks mpisim ranks. The HMatrix is shared
/// read-only across the rank threads (as real MPI would replicate the
/// compressed operator here); each rank owns its subtree's factors.
int run_solve_dist(const Args& a, const askit::HMatrix& h,
                   const std::vector<double>& u) {
  std::vector<double> x;
  double factor_seconds = 0.0;
  index_t reduced = 0;
  int ksp = 0;
  core::SolveStatus vstat;
  mpisim::run(a.ranks, [&](mpisim::Comm& comm) {
    if (a.hybrid) {
      core::HybridOptions ho;
      ho.direct.lambda = a.lambda;
      ho.direct.compact_w = a.compact_w;
      ho.direct.scheme = a.scheme;
      ho.direct.checkpoint_dir = a.checkpoint_dir;
      if (a.verify) ho.direct.verify.mode = core::VerifyMode::Always;
      core::DistributedHybridSolver solver(h, ho, comm);
      auto xi = solver.solve(u);
      if (comm.rank() == 0) {
        x = std::move(xi);
        factor_seconds = solver.factor_seconds();
        reduced = solver.reduced_size();
        ksp = solver.last_gmres().iterations;
        vstat = solver.last_status();
        warn_if_degraded(solver.factor_status());
        warn_if_degraded(solver.last_status());
      }
    } else {
      core::SolverOptions so;
      so.lambda = a.lambda;
      so.compact_w = a.compact_w;
      so.spd_leaves = a.spd_leaves;
      so.scheme = a.scheme;
      so.checkpoint_dir = a.checkpoint_dir;
      if (a.verify) so.verify.mode = core::VerifyMode::Always;
      core::DistributedSolver solver(h, so, comm);
      auto xi = solver.solve(u);
      if (comm.rank() == 0) {
        x = std::move(xi);
        factor_seconds = solver.factor_seconds();
        vstat = solver.last_status();
        warn_if_degraded(solver.factor_status());
        warn_if_degraded(solver.last_status());
      }
    }
  });
  if (a.hybrid) {
    std::printf("dist-hybrid p=%d: factor %.3fs, reduced %td, ksp %d, "
                "residual %.2e\n",
                a.ranks, factor_seconds, reduced, ksp,
                h.relative_residual(x, u, a.lambda));
  } else {
    std::printf("dist-direct p=%d: factor %.3fs, residual %.2e\n", a.ranks,
                factor_seconds, h.relative_residual(x, u, a.lambda));
  }
  if (a.verify)
    std::printf("verify: certified residual %.2e (%s), %d escalations\n",
                vstat.residual, core::to_string(vstat.code),
                vstat.escalations);
  return 0;
}

int run_solve(const Args& a) {
  data::Dataset ds = data::make_synthetic(a.kind, a.n, a.seed);
  std::printf("dataset %s: N=%td d=%td\n", ds.name.c_str(), ds.n(), ds.dim());

  const bool ck = !a.checkpoint_dir.empty();
  std::string solved_detail;
  if (ck && ckpt::stage_done(a.checkpoint_dir, "solve", &solved_detail)) {
    std::printf("checkpoint: pipeline already complete — %s\n",
                solved_detail.c_str());
    return 0;
  }

  obs::ScopedTimer t_setup("setup");
  askit::HMatrix h = build_or_resume_hmatrix(a, ds);
  t_setup.stop();
  std::printf("hmatrix: %td nodes skeletonized, max rank %td, frontier %zu\n",
              h.stats().skeletonized_nodes, h.stats().max_rank_used,
              h.frontier().size());
  std::mt19937_64 rng(a.seed + 1);
  std::vector<double> u(static_cast<size_t>(a.n));
  std::normal_distribution<double> g(0.0, 1.0);
  for (auto& v : u) v = g(rng);

  if (a.ranks > 1) return run_solve_dist(a, h, u);

  char summary[160];
  if (a.hybrid) {
    core::HybridOptions ho;
    ho.direct.lambda = a.lambda;
    ho.direct.compact_w = a.compact_w;
    ho.direct.scheme = a.scheme;
    ho.direct.checkpoint_dir = a.checkpoint_dir;
    // --verify: the guarded solve certifies the answer through the
    // shared refinement/escalation ladder (default target 1e-6).
    if (a.verify) ho.direct.verify.mode = core::VerifyMode::Always;
    core::HybridSolver solver(h, ho);
    if (ck) ckpt::mark_stage(a.checkpoint_dir, "factorize");
    warn_if_degraded(solver.factor_status());
    std::vector<double> x(u.size(), 0.0);
    if (a.verify) {
      const core::SolveStatus st = solver.solve_with_status(u, x);
      std::printf("verify: certified residual %.2e (%s), %d escalations\n",
                  st.residual, core::to_string(st.code), st.escalations);
    } else {
      x = solver.solve(u);
    }
    std::snprintf(summary, sizeof summary,
                  "hybrid: factor %.3fs, reduced %td, ksp %d, residual "
                  "%.2e, mem %.1f MB, %s",
                  solver.factor_seconds(), solver.reduced_size(),
                  solver.last_gmres().iterations,
                  h.relative_residual(x, u, a.lambda),
                  double(solver.factor_bytes()) / 1048576.0,
                  solver.stability().stable() ? "stable" : "UNSTABLE");
  } else {
    core::SolverOptions so;
    so.lambda = a.lambda;
    so.compact_w = a.compact_w;
    so.spd_leaves = a.spd_leaves;
    so.scheme = a.scheme;
    so.checkpoint_dir = a.checkpoint_dir;
    if (a.verify) so.verify.mode = core::VerifyMode::Always;
    core::FastDirectSolver solver(h, so);
    if (ck) ckpt::mark_stage(a.checkpoint_dir, "factorize");
    warn_if_degraded(solver.factor_status());
    std::vector<double> x(u.size(), 0.0);
    if (a.verify) {
      const core::VerifyOutcome vo = solver.solve_verified(u, x);
      std::printf(
          "verify: certified residual %.2e (%s), %d refine steps, "
          "%d escalations\n",
          vo.residual, vo.certified ? "certified" : "MISSED TARGET",
          vo.refine_steps, vo.escalations);
    } else {
      x = solver.solve(u);
    }
    std::snprintf(summary, sizeof summary,
                  "direct: factor %.3fs, residual %.2e, mem %.1f MB, %s",
                  solver.factor_seconds(),
                  h.relative_residual(x, u, a.lambda),
                  double(solver.factor_bytes()) / 1048576.0,
                  solver.stability().stable() ? "stable" : "UNSTABLE");
  }
  std::printf("%s\n", summary);
  if (ck) ckpt::mark_stage(a.checkpoint_dir, "solve", summary);
  return 0;
}

int run_krr(const Args& a) {
  data::Dataset ds = data::make_synthetic(a.kind, a.n, a.seed);
  if (!ds.labeled()) {
    std::fprintf(stderr, "dataset %s has no labels; pick covtype/susy/"
                         "mnist/higgs\n",
                 ds.name.c_str());
    return 1;
  }
  auto [train, test] = data::train_test_split(ds, 0.2, a.seed + 1);
  krr::KrrConfig cfg;
  cfg.bandwidth = a.h;
  cfg.lambda = a.lambda;
  cfg.askit = askit_config(a);
  cfg.use_hybrid = a.hybrid;
  // "train" rather than "setup": KernelRidge factorizes internally, so
  // the factorize/solve timers nest under this scope.
  obs::ScopedTimer t_train("train");
  krr::KernelRidge model(train, cfg);
  t_train.stop();
  std::printf("%s: train N=%td, test N=%td, h=%.3f lambda=%.4f\n",
              ds.name.c_str(), train.n(), test.n(), a.h, a.lambda);
  std::printf("train residual %.2e, factor %.3fs, %s\n",
              model.train_residual(), model.factor_seconds(),
              model.stable() ? "stable" : "UNSTABLE");
  std::printf("test accuracy: %.2f%%\n", 100.0 * model.accuracy(test));
  return 0;
}

int run_info(const Args& a) {
  data::Dataset ds = data::make_synthetic(a.kind, a.n, a.seed);
  obs::ScopedTimer t_setup("setup");
  askit::HMatrix h(ds.points, kernel::Kernel::gaussian(a.h),
                   askit_config(a));
  t_setup.stop();
  std::printf("dataset %s: N=%td d=%td intrinsic=%td\n", ds.name.c_str(),
              ds.n(), ds.dim(), ds.intrinsic_dim);
  std::printf("tree: depth %d, %zu nodes, leaf size <= %td\n",
              h.tree().depth(), h.tree().nodes().size(),
              h.config().leaf_size);
  std::printf("skeletons: %td nodes, max rank %td, frontier %zu, "
              "knn %.2fs + skel %.2fs\n",
              h.stats().skeletonized_nodes, h.stats().max_rank_used,
              h.frontier().size(), h.stats().knn_seconds,
              h.stats().skeleton_seconds);
  // Rank profile per level.
  for (size_t l = 0; l < h.tree().levels().size(); ++l) {
    index_t maxr = 0, count = 0;
    double sum = 0.0;
    for (index_t id : h.tree().levels()[l]) {
      if (!h.is_skeletonized(id)) continue;
      const index_t r = h.skeleton(id).rank();
      maxr = std::max(maxr, r);
      sum += double(r);
      ++count;
    }
    if (count > 0)
      std::printf("  level %2zu: %td skeletonized, rank avg %.1f max %td\n",
                  l, count, sum / double(count), maxr);
  }
  return 0;
}

int run_gen(const Args& a) {
  if (a.out.empty()) {
    std::fprintf(stderr, "gen: --out PATH required (.svm/.csv/.bin)\n");
    return 2;
  }
  data::Dataset ds = data::make_synthetic(a.kind, a.n, a.seed);
  const auto ends_with = [&](const char* suffix) {
    const std::string s = suffix;
    return a.out.size() >= s.size() &&
           a.out.compare(a.out.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".svm")) {
    data::write_libsvm(a.out, ds);
  } else if (ends_with(".csv")) {
    data::write_csv(a.out, ds);
  } else if (ends_with(".bin")) {
    data::write_binary(a.out, ds);
  } else {
    std::fprintf(stderr, "gen: unknown extension on %s\n", a.out.c_str());
    return 2;
  }
  std::printf("wrote %s: N=%td d=%td labeled=%s\n", a.out.c_str(), ds.n(),
              ds.dim(), ds.labeled() ? "yes" : "no");
  return 0;
}

}  // namespace

namespace {

/// "x.json" -> "x.rank3.json"; no-extension paths get ".rank3" appended.
std::string rank_suffixed(const std::string& path, int rank) {
  const std::string suffix = ".rank" + std::to_string(rank);
  const size_t dot = path.rfind(".json");
  if (dot != std::string::npos && dot == path.size() - 5)
    return path.substr(0, dot) + suffix + ".json";
  return path + suffix;
}

void export_trace(const Args& a) {
  const obs::trace::TraceData data = obs::trace::collect();
  size_t events = 0;
  for (const auto& t : data.threads) events += t.events.size();
  if (obs::trace::write_chrome_trace(a.trace, data))
    std::printf("trace: wrote %s (%zu threads, %zu events)\n",
                a.trace.c_str(), data.threads.size(), events);
  if (a.ranks > 1) {
    // Per-rank files alongside the combined one. Cross-rank flow arrows
    // only render in the combined file, where both endpoints exist.
    for (int r = 0; r < a.ranks; ++r) {
      obs::trace::TraceData one;
      for (const auto& t : data.threads)
        if (t.rank == r) one.threads.push_back(t);
      if (one.threads.empty()) continue;
      obs::trace::write_chrome_trace(rank_suffixed(a.trace, r), one);
    }
    std::printf("trace: per-rank files %s\n",
                rank_suffixed(a.trace, 0).c_str());
  }
  const obs::trace::CriticalPath cp = obs::trace::critical_path(data);
  if (!cp.segments.empty())
    std::fputs(obs::trace::critical_path_report(cp).c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage();
  if (a.cmd == "solve" && a.ranks > 1 && a.hybrid) {
    // The distributed hybrid requires every frontier node to live on one
    // rank: raise the adaptive-rank frontier to at least level log2(p).
    index_t logp = 0;
    while ((index_t{1} << logp) < a.ranks) ++logp;
    if (a.restrict_level < logp) {
      std::printf("note: raising --restrict to %td for --ranks %d\n", logp,
                  a.ranks);
      a.restrict_level = logp;
    }
  }
  if (a.profile) {
    obs::set_enabled(true);
    obs::reset();
  }
  if (!a.trace.empty()) {
    obs::trace::set_enabled(true);
    obs::trace::reset();
  }

  // Periodic metrics sampler (obs::Sampler): each tick prints the RSS /
  // trace-volume line plus the interval's counter-delta count. The
  // sampler's own snapshot diffs are safe concurrently with emission.
  std::unique_ptr<obs::Sampler> sampler;
  if (a.metrics_interval_ms > 0) {
    obs::SamplerOptions sopts;
    sopts.interval = std::chrono::milliseconds(a.metrics_interval_ms);
    sopts.on_sample = [](const obs::Sample& s) {
      size_t events = 0, dropped = 0;
      for (const auto& t : obs::trace::collect().threads) {
        events += t.events.size();
        dropped += t.dropped;
      }
      std::fprintf(stderr,
                   "[metrics] rss=%.1fMB peak=%.1fMB trace_events=%zu "
                   "dropped=%zu counters_active=%zu\n",
                   double(s.rss_bytes) / 1048576.0,
                   double(s.peak_rss_bytes) / 1048576.0, events, dropped,
                   s.counter_deltas.size());
    };
    sampler = std::make_unique<obs::Sampler>(std::move(sopts));
  }

  int rc = 0;
  try {
    if (a.cmd == "solve") rc = run_solve(a);
    else if (a.cmd == "krr") rc = run_krr(a);
    else if (a.cmd == "gen") rc = run_gen(a);
    else rc = run_info(a);
  } catch (...) {
    sampler.reset();  // Join the sampler before the exception escapes.
    throw;
  }
  sampler.reset();
  if (a.profile) obs::print_tree(stdout, obs::snapshot());
  if (!a.trace.empty()) export_trace(a);
  return rc;
}
