// Training workloads: a cold pipeline from points to weight vectors,
// repeated while the run's time lasts.
//
//   train_cv     — KRR with a cross-validation λ sweep: build, factorize
//                  once, refactorize() across the λ grid, block-solve B
//                  right-hand sides per λ. Skeletonization and
//                  factorization carry the run.
//   train_hybrid — Table V's hybrid path: frontier factorization plus
//                  GMRES on the reduced system, whose GSKS V applies
//                  carry the run.
#include <memory>

#include "core/hybrid.hpp"
#include "core/solver.hpp"
#include "data/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

using fdks::askit::AskitConfig;
using fdks::askit::HMatrix;
using fdks::core::FastDirectSolver;
using fdks::core::HybridOptions;
using fdks::core::HybridSolver;
using fdks::kernel::Kernel;

namespace {

constexpr std::uint64_t kSkeletonSeed = 17;  // Library sampling, fixed.

struct Samples {
  std::vector<double> setup, factor, refactor, solve, train, answer;
};

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// The end-to-end metrics both training workloads share.
void train_metrics(Result& r, const Samples& s, index_t b, double resid,
                   double err, double factor_bytes, double ok_frac) {
  r.metric("setup_s", best(s.setup), "s");
  r.metric("factor_s", best(s.factor), "s");
  r.metric("refactor_s", best(s.refactor), "s");
  r.metric("solve_s", best(s.solve), "s");
  r.metric("train_s", best(s.train), "s");
  r.metric("solve_resid", resid, "1");
  r.metric("approx_err", err, "1");
  r.metric("factor_mb", factor_bytes / (1024.0 * 1024.0), "MB");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("serve_p50_ms", quantile(s.answer, 0.50) * 1e3, "ms");
  r.metric("serve_p99_ms", quantile(s.answer, 0.99) * 1e3, "ms");
  r.metric("ok_frac", ok_frac, "1");
  r.metric("burst_rps", static_cast<double>(b) / best(s.solve), "req/s");
  r.samples["setup_s"] = s.setup;
  r.samples["factor_s"] = s.factor;
  r.samples["refactor_s"] = s.refactor;
  r.samples["solve_s"] = s.solve;
  r.samples["train_s"] = s.train;
}

// ---- train_cv ----------------------------------------------------------

struct CvConfig {
  index_t n = 8192;
  index_t b = 8;
  std::vector<double> lambdas{1.0, 2.0, 4.0, 8.0};
  AskitConfig askit() const {
    AskitConfig a;
    a.leaf_size = 256;
    a.max_rank = 64;
    a.tol = 1e-5;
    a.level_restriction = 0;
    a.num_neighbors = 0;
    a.seed = kSkeletonSeed;
    return a;
  }
};

struct CvPass {
  Samples s;
  std::unique_ptr<HMatrix> h;
  std::unique_ptr<FastDirectSolver> solver;
  std::vector<Matrix> x;  ///< One weight block per λ.
  long long shift_retries = 0;
  void release() {
    solver.reset();
    h.reset();
  }
};

CvPass cv_pass(const CvConfig& c, const Matrix& points, const Matrix& u) {
  CvPass p;
  const auto t0 = Clock::now();
  {
    ScopedSpan span("HMatrix", true);
    p.h = std::make_unique<HMatrix>(points, Kernel::gaussian(0.8), c.askit());
  }
  p.s.setup.push_back(since(t0));
  fdks::core::SolverOptions so;
  so.lambda = c.lambdas.front();
  so.scheme = fdks::kernel::Scheme::StoredGemv;
  auto t = Clock::now();
  {
    ScopedSpan span("FastDirectSolver", true);
    p.solver = std::make_unique<FastDirectSolver>(*p.h, so);
  }
  p.s.factor.push_back(since(t));
  for (size_t k = 0; k < c.lambdas.size(); ++k) {
    if (k > 0) {
      t = Clock::now();
      {
        ScopedSpan span("refactorize", true);
        p.solver->refactorize(c.lambdas[k]);
      }
      p.s.refactor.push_back(since(t));
    }
    p.shift_retries += p.solver->factor_status().shift_retries;
    t = Clock::now();
    {
      ScopedSpan span("FastDirectSolver.solve", true);
      p.x.push_back(p.solver->solve(u));
    }
    p.s.solve.push_back(since(t));
    p.s.answer.insert(p.s.answer.end(), static_cast<size_t>(c.b), since(t0));
  }
  p.s.train.push_back(since(t0));
  return p;
}

// ---- train_hybrid ------------------------------------------------------

struct HybridConfig {
  index_t n = 4096;
  index_t b = 2;
  double lambda = 40.0;
  double lambda2 = 80.0;  ///< Second factorization (refactor_s).
  double rtol = 1e-4;
  AskitConfig askit() const {
    AskitConfig a;
    a.leaf_size = 128;
    a.max_rank = 128;
    a.tol = 1e-5;
    a.level_restriction = 3;
    a.num_neighbors = 0;
    a.seed = kSkeletonSeed;
    return a;
  }
  HybridOptions options(double lam) const {
    HybridOptions o;
    o.direct.lambda = lam;
    o.gmres.rtol = rtol;
    o.gmres.max_iters = 400;
    o.gmres.record_history = false;
    return o;
  }
};

struct HybridPass {
  Samples s;
  std::unique_ptr<HMatrix> h;
  std::unique_ptr<HybridSolver> solver;
  Matrix x;
  void release() {
    solver.reset();
    h.reset();
  }
};

HybridPass hybrid_pass(const HybridConfig& c, const Matrix& points,
                       const Matrix& u) {
  HybridPass p;
  const auto t0 = Clock::now();
  {
    ScopedSpan span("HMatrix", true);
    p.h = std::make_unique<HMatrix>(points, Kernel::gaussian(0.5), c.askit());
  }
  p.s.setup.push_back(since(t0));
  auto t = Clock::now();
  {
    ScopedSpan span("HybridSolver", true);
    p.solver = std::make_unique<HybridSolver>(*p.h, c.options(c.lambda));
  }
  p.s.factor.push_back(since(t));
  t = Clock::now();
  {
    ScopedSpan span("HybridSolver.solve", true);
    p.x = p.solver->solve(u);
  }
  p.s.solve.push_back(since(t));
  p.s.answer.assign(static_cast<size_t>(c.b), since(t0));
  p.s.train.push_back(since(t0));
  // A second tenant's λ: HybridSolver has no refactorize(), so a new λ
  // is a fresh frontier factorization on the same HMatrix.
  t = Clock::now();
  {
    ScopedSpan span("HybridSolver:refactor", true);
    HybridSolver second(*p.h, c.options(c.lambda2));
  }
  p.s.refactor.push_back(since(t));
  return p;
}

/// Run passes while the run's time lasts (at least one), leaving
/// kReserve for the checks. Samples of every pass are merged into `all`;
/// answer times are those of the fastest pass.
template <class Pass, class F>
Pass timed_passes(const Options& opts, Samples& all, F&& run) {
  Pass last;
  double longest = 0.0;
  do {
    const auto t = Clock::now();
    last.release();  // Free the previous pass before the next builds.
    last = run();
    longest = std::max(longest, since(t));
    if (all.train.empty() || last.s.train.front() < best(all.train))
      all.answer = last.s.answer;
    append(all.setup, last.s.setup);
    append(all.factor, last.s.factor);
    append(all.refactor, last.s.refactor);
    append(all.solve, last.s.solve);
    append(all.train, last.s.train);
  } while (time_left(opts) - longest > kReserve);
  return last;
}

}  // namespace

Result run_train_cv(const Options& opts) {
  Result r;
  CvConfig c;
  {  // Warm-up on a tiny instance of the same pipeline.
    CvConfig tiny = c;
    tiny.n = 2048;
    const auto ds = fdks::data::make_synthetic(fdks::data::SyntheticKind::Normal,
                                               tiny.n, 1);
    (void)cv_pass(tiny, ds.points, gaussian_block(tiny.n, tiny.b, 2));
  }
  const Matrix points = workload_points(fdks::data::SyntheticKind::Normal,
                                        c.n, substream(opts.seed, 1));
  const Matrix u = training_rhs(fdks::data::SyntheticKind::Normal, c.n, c.b);
  Samples all;
  CvPass last;
  LayerInputs li;
  if (!opts.trace) {
    last = timed_passes<CvPass>(opts, all,
                                [&] { return cv_pass(c, points, u); });
  } else {
    const double untraced = cv_pass(c, points, u).s.train.front();
    tracer().start();
    li.root = tracer().open("train_cv");
    last = cv_pass(c, points, u);
    tracer().close(li.root);
    tracer().stop();
    all = last.s;
    li.trace_overhead = last.s.train.front() / untraced;
    r.counts = work_counts();
  }

  // Correctness gate: the weight vectors solve (λI+K̃)x = u through the
  // hierarchical operator to within τ, with no guardrail shift. One
  // seeded column per λ is checked (each check is a treecode apply).
  const double tau = c.askit().tol;
  double resid = 0.0;
  long long ok = 0, total = 0;
  for (size_t k = 0; k < c.lambdas.size(); ++k) {
    const auto j = static_cast<index_t>((substream(opts.seed, 7) + k) %
                                        static_cast<std::uint64_t>(c.b));
    const double rj = column_residual(*last.h, last.x[k], u, j, c.lambdas[k]);
    resid = std::max(resid, rj);
    ok += rj <= tau;
    ++total;
  }
  r.check(resid <= tau, "train_cv: solve residual above tau");
  r.check(last.shift_retries == 0, "train_cv: guardrail shift retries");
  const double err = approx_err(*last.h);
  r.check(std::isfinite(err) && err < 1.0, "train_cv: approximation error");
  r.attempted = static_cast<long long>(all.solve.size()) * c.b;
  r.failed = total - ok;
  r.config = {{"n", std::to_string(c.n)},
              {"b", std::to_string(c.b)},
              {"passes", std::to_string(all.train.size())}};

  if (!opts.trace) {
    train_metrics(r, all, c.b, resid, err,
                  static_cast<double>(last.solver->factor_bytes()),
                  static_cast<double>(ok) / static_cast<double>(total));
  } else {
    const auto [rank_sum, nodes] = skeleton_totals(*last.h);
    li.build_spans = {"HMatrix"};
    li.factor_spans = {"FastDirectSolver"};
    li.rank_sum = rank_sum;
    li.nodes = nodes;
    li.solve_ms_per_rhs = median(all.solve) / double(c.b) * 1e3;
    layer_metrics(r, li);
  }
  return r;
}

Result run_train_hybrid(const Options& opts) {
  Result r;
  HybridConfig c;
  {
    HybridConfig tiny = c;
    tiny.n = 2048;
    const auto ds = fdks::data::make_synthetic(
        fdks::data::SyntheticKind::SusyLike, tiny.n, 1);
    (void)hybrid_pass(tiny, ds.points, gaussian_block(tiny.n, tiny.b, 2));
  }
  const Matrix points = workload_points(fdks::data::SyntheticKind::SusyLike,
                                        c.n, substream(opts.seed, 1));
  const Matrix u =
      training_rhs(fdks::data::SyntheticKind::SusyLike, c.n, c.b);
  Samples all;
  HybridPass last;
  LayerInputs li;
  if (!opts.trace) {
    last = timed_passes<HybridPass>(
        opts, all, [&] { return hybrid_pass(c, points, u); });
  } else {
    const double untraced = hybrid_pass(c, points, u).s.train.front();
    tracer().start();
    li.root = tracer().open("train_hybrid");
    last = hybrid_pass(c, points, u);
    tracer().close(li.root);
    tracer().stop();
    all = last.s;
    li.trace_overhead = last.s.train.front() / untraced;
    r.counts = work_counts();
  }

  // Correctness gate: the hybrid answer is only as tight as its Krylov
  // tolerance; allow the reduced-to-full residual a factor 10.
  const double bound = 10.0 * c.rtol;
  double resid = 0.0;
  long long ok = 0;
  for (index_t j = 0; j < c.b; ++j) {
    const double rj = column_residual(*last.h, last.x, u, j, c.lambda);
    resid = std::max(resid, rj);
    ok += rj <= bound;
  }
  r.check(resid <= bound, "train_hybrid: solve residual above 10*rtol");
  r.check(last.solver->last_gmres().converged, "train_hybrid: GMRES stalled");
  const double err = approx_err(*last.h);
  r.check(std::isfinite(err) && err < 1.0, "train_hybrid: approximation error");
  r.attempted = static_cast<long long>(all.solve.size()) * c.b;
  r.failed = c.b - ok;
  r.config = {{"n", std::to_string(c.n)},
              {"b", std::to_string(c.b)},
              {"gmres_iterations",
               std::to_string(last.solver->last_gmres().iterations)},
              {"passes", std::to_string(all.train.size())}};

  if (!opts.trace) {
    train_metrics(r, all, c.b, resid, err,
                  static_cast<double>(last.solver->factor_bytes()),
                  static_cast<double>(ok) / static_cast<double>(c.b));
  } else {
    const auto [rank_sum, nodes] = skeleton_totals(*last.h);
    li.build_spans = {"HMatrix"};
    li.factor_spans = {"HybridSolver"};
    li.rank_sum = rank_sum;
    li.nodes = nodes;
    li.solve_ms_per_rhs = median(all.solve) / double(c.b) * 1e3;
    li.reduced_size = static_cast<double>(last.solver->reduced_size());
    layer_metrics(r, li);
  }
  return r;
}

}  // namespace perfbench
