// Helpers shared by the workloads: accuracy checks against the exact
// kernel, and the per-layer report of a traced run.
#include <algorithm>
#include <numeric>
#include <random>

#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {

using fdks::askit::HMatrix;

constexpr std::uint64_t kDrawSeed = 2017;

Matrix training_rhs(fdks::data::SyntheticKind kind, index_t n, index_t b) {
  const fdks::data::Dataset ds = fdks::data::make_synthetic(kind, n, kDrawSeed);
  const std::vector<double>& y = ds.labeled() ? ds.labels : ds.targets;
  std::mt19937_64 rng(kDrawSeed + 1);
  Matrix u = Matrix::random_gaussian(n, b, rng);
  std::copy(y.begin(), y.end(), u.col(0));
  return u;
}

Matrix workload_points(fdks::data::SyntheticKind kind, index_t n,
                       std::uint64_t seed) {
  const Matrix base = fdks::data::make_synthetic(kind, n, kDrawSeed).points;
  const index_t d = base.rows();
  // Haar-random orthogonal Q: modified Gram-Schmidt on a Gaussian matrix,
  // with column signs fixed by the diagonal of R.
  std::mt19937_64 rng(seed);
  Matrix q = Matrix::random_gaussian(d, d, rng);
  for (index_t j = 0; j < d; ++j) {
    for (index_t k = 0; k < j; ++k) {
      double dot = 0.0;
      for (index_t i = 0; i < d; ++i) dot += q(i, k) * q(i, j);
      for (index_t i = 0; i < d; ++i) q(i, j) -= dot * q(i, k);
    }
    double norm = 0.0;
    for (index_t i = 0; i < d; ++i) norm += q(i, j) * q(i, j);
    norm = std::sqrt(norm);
    for (index_t i = 0; i < d; ++i) q(i, j) /= norm;
  }
  Matrix out(d, n);
  for (index_t p = 0; p < n; ++p)
    for (index_t k = 0; k < d; ++k) {
      const double x = base(k, p);
      for (index_t i = 0; i < d; ++i) out(i, p) += q(i, k) * x;
    }
  return out;
}

double approx_err(const HMatrix& h, index_t rows) {
  // Several seeded w at once: the error of one w swings with how it
  // aligns with the kernel's spectrum.
  constexpr index_t kVectors = 8;
  const index_t n = h.n();
  std::mt19937_64 rng(0x5eed);
  const Matrix w = Matrix::random_gaussian(n, kVectors, rng);
  std::vector<std::vector<double>> wp, yp;  // Tree order, as h.km().
  for (index_t k = 0; k < kVectors; ++k) {
    const std::span<const double> wk(w.col(k), static_cast<size_t>(n));
    std::vector<double> y(static_cast<size_t>(n));
    h.apply(wk, y, 0.0);
    wp.push_back(h.to_tree_order(wk));
    yp.push_back(h.to_tree_order(y));
  }

  std::vector<index_t> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), index_t{0});
  std::vector<index_t> sample = all;
  rows = std::min(rows, n);
  for (index_t i = 0; i < rows; ++i) {  // Partial Fisher-Yates.
    std::uniform_int_distribution<index_t> pick(i, n - 1);
    std::swap(sample[static_cast<size_t>(i)],
              sample[static_cast<size_t>(pick(rng))]);
  }
  double num = 0.0, den = 0.0;
  constexpr index_t kChunk = 64;
  for (index_t r0 = 0; r0 < rows; r0 += kChunk) {
    const index_t nr = std::min(kChunk, rows - r0);
    const std::span<const index_t> chunk(sample.data() + r0,
                                         static_cast<size_t>(nr));
    const Matrix kb = h.km().block(chunk, all);
    for (index_t i = 0; i < nr; ++i) {
      const auto row = static_cast<size_t>(chunk[static_cast<size_t>(i)]);
      for (index_t k = 0; k < kVectors; ++k) {
        const auto& wk = wp[static_cast<size_t>(k)];
        double exact = 0.0;
        for (index_t j = 0; j < n; ++j)
          exact += kb(i, j) * wk[static_cast<size_t>(j)];
        const double d = yp[static_cast<size_t>(k)][row] - exact;
        num += d * d;
        den += exact * exact;
      }
    }
  }
  return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

double column_residual(const HMatrix& h, const Matrix& x, const Matrix& u,
                       index_t j, double lambda) {
  const auto n = static_cast<size_t>(h.n());
  const double r = h.relative_residual(std::span<const double>(x.col(j), n),
                                       std::span<const double>(u.col(j), n),
                                       lambda);
  return std::isfinite(r) ? r : INFINITY;
}

std::pair<double, double> skeleton_totals(const HMatrix& h) {
  double rank_sum = 0.0, nodes = 0.0;
  const auto count = static_cast<index_t>(h.tree().nodes().size());
  for (index_t id = 0; id < count; ++id) {
    if (!h.is_skeletonized(id)) continue;
    rank_sum += static_cast<double>(h.skeleton(id).rank());
    nodes += 1.0;
  }
  return {rank_sum, nodes};
}

double peak_rss_mb() {
  return static_cast<double>(fdks::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::map<std::string, double> work_counts() {
  const fdks::obs::Snapshot snap = fdks::obs::snapshot();
  std::map<std::string, double> out;
  for (const char* k : {"flops.gemm", "flops.gemv", "gsks.kernel_evals",
                        "skeleton.rank_sum", "gmres.iterations",
                        "verify.checks"}) {
    const auto it = snap.counters.find(k);
    out[k] = it == snap.counters.end() ? 0.0 : it->second;
  }
  return out;
}

namespace {

double counter(const fdks::obs::Snapshot& s, const char* k) {
  const auto it = s.counters.find(k);
  return it == s.counters.end() ? 0.0 : it->second;
}

const fdks::obs::HistogramSnapshot* hist(const fdks::obs::Snapshot& s,
                                         const char* k) {
  const auto it = s.histograms.find(k);
  return it == s.histograms.end() || it->second.count == 0 ? nullptr
                                                           : &it->second;
}

/// Mean over the named spans of one counter's change, and their count.
double per_span(const Tracer& t, const std::vector<std::string>& names,
                const std::string& counter) {
  double total = 0.0;
  size_t n = 0;
  for (const auto& name : names) {
    total += t.delta_sum(name, counter);
    n += t.durations(name).size();
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

double total_duration(const Tracer& t, const std::vector<std::string>& names) {
  double total = 0.0;
  for (const auto& name : names)
    for (double d : t.durations(name)) total += d;
  return total;
}

}  // namespace

void layer_metrics(Result& r, const LayerInputs& in) {
  const Tracer& t = tracer();
  const fdks::obs::Snapshot snap = fdks::obs::snapshot();

  // askit: per HMatrix construction.
  r.metric("askit.tree_s", per_span(t, in.build_spans, "timer:tree"), "s");
  r.metric("askit.skeletonize_s",
           per_span(t, in.build_spans, "timer:skeletonize"), "s");
  r.metric("askit.rank_sum", in.rank_sum, "count");
  r.metric("askit.nodes", in.nodes, "count");

  // core factorize: per first factorization.
  r.metric("core.leaf_s", per_span(t, in.factor_spans, "timer:leaf"), "s");
  r.metric("core.v_assembly_s",
           per_span(t, in.factor_spans, "timer:v_assembly"), "s");
  r.metric("core.z_s", per_span(t, in.factor_spans, "timer:z_factor"), "s");
  r.metric("core.telescope_s",
           per_span(t, in.factor_spans, "timer:telescope"), "s");
  const double factor_time = total_duration(t, in.factor_spans);
  double factor_flops = 0.0;
  for (const auto& name : in.factor_spans)
    factor_flops += t.delta_sum(name, "flops.gemm") +
                    t.delta_sum(name, "flops.gemv");
  r.metric("core.factor_gflops",
           factor_time > 0.0 ? factor_flops / factor_time / 1e9 : 0.0,
           "GFLOP/s");

  // la: totals over the traced phase (per-span figures are in the
  // results file).
  r.metric("la.gemm_gflop", counter(snap, "flops.gemm") / 1e9, "GFLOP");
  r.metric("la.gemv_gflop", counter(snap, "flops.gemv") / 1e9, "GFLOP");
  r.metric("la.gemm_calls", counter(snap, "gemm.calls"), "count");

  r.metric("core.solve_ms_per_rhs", in.solve_ms_per_rhs, "ms");

  // kernel: evaluations, and their rate over the counted spans that did
  // them (evaluations and time from the same spans).
  double span_evals = 0.0, eval_time = 0.0;
  for (const Span& s : t.spans()) {
    const auto it = s.delta.find("gsks.kernel_evals");
    if (it == s.delta.end()) continue;
    span_evals += it->second;
    eval_time += s.t1 - s.t0;
  }
  r.metric("kernel.gsks_evals", counter(snap, "gsks.kernel_evals"), "count");
  r.metric("kernel.gsks_gevals_per_s",
           eval_time > 0.0 ? span_evals / eval_time / 1e9 : 0.0, "Geval/s");

  // iterative + core/hybrid.
  r.metric("gmres.iterations", counter(snap, "gmres.iterations"), "count");
  const auto* iter = hist(snap, "gmres.iter_seconds");
  r.metric("gmres.iter_ms", iter ? iter->mean() * 1e3 : 0.0, "ms");
  r.metric("hybrid.reduced_size", in.reduced_size, "count");

  // serve.
  const std::vector<double> submits = t.durations("ServeEngine.submit");
  r.metric("serve.submit_us_p50", median(submits) * 1e6, "us");
  const auto* width = hist(snap, "serve.batch_size");
  r.metric("serve.batch_width_mean", width ? width->mean() : 0.0, "count");
  const auto* batch = hist(snap, "serve.batch_seconds");
  r.metric("serve.batch_ms_p50", batch ? batch->quantile(0.5) * 1e3 : 0.0,
           "ms");
  // Batch time (the engine's serve.batch timer) over the serving window
  // only: set-up passes and reference solves are outside it.
  double busy = 0.0;
  for (const auto& name : in.serving_spans)
    busy += t.delta_sum(name, "timer:serve.batch");
  const double window = total_duration(t, in.serving_spans);
  r.metric("serve.busy_frac", window > 0.0 ? busy / window : 0.0, "1");
  r.metric("serve.gen_late_ms_p99", quantile(in.gen_late_s, 0.99) * 1e3,
           "ms");

  // core/verify.
  r.metric("verify.checks", counter(snap, "verify.checks"), "count");
  const auto* vsec = hist(snap, "verify.seconds");
  r.metric("verify.ms_p50", vsec ? vsec->quantile(0.5) * 1e3 : 0.0, "ms");
  r.metric("refine.steps", counter(snap, "refine.steps"), "count");

  // serve FactorCache.
  r.metric("serve.cache_get_s.miss",
           median(t.durations("FactorCache.get:miss")), "s");
  r.metric("serve.cache_get_s.hit", median(t.durations("FactorCache.get:hit")),
           "s");

  r.metric("trace_overhead", in.trace_overhead, "ratio");
  if (in.root >= 0) r.samples["trace.coverage"] = {t.coverage(in.root)};
}

}  // namespace perfbench
