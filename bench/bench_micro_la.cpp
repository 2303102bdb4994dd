// Google-benchmark microbenchmarks for the dense linear-algebra
// substrate: GEMM, LU, pivoted QR, and the fused kernel summation.
// These are the primitives whose throughput sets GFf/GFs in Tables I/IV.
#include <benchmark/benchmark.h>
#include <vector>

#include <numeric>
#include <random>

#include "bench_util.hpp"
#include "kernel/gsks.hpp"
#include "kernel/kernel_matrix.hpp"
#include "la/gemm.hpp"
#include "la/id.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"

using namespace fdks;
using la::Matrix;
using la::index_t;

static void BM_Gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  std::mt19937_64 rng(1);
  Matrix a = Matrix::random_gaussian(n, n, rng);
  Matrix b = Matrix::random_gaussian(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    la::gemm(la::Trans::No, la::Trans::No, 1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * double(n) * double(n) * double(n) * double(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)->Arg(512);

// gemm_raw at the solver's own shapes (m x n x k): the Gram tile and
// the B = 64 tile reduction (64x64x64), V * P-hat (64x64x2048),
// telescoping (2048x64x64), the leaf LU's trailing update (192x192x64),
// the d = 8 Gram tile on the small path (64x64x8) and the solve panels
// (4096x1x64, 4096x8x64).
static void BM_GemmRaw(benchmark::State& state) {
  const index_t m = state.range(0), n = state.range(1), k = state.range(2);
  std::mt19937_64 rng(5);
  Matrix a = Matrix::random_gaussian(m, k, rng);
  Matrix b = Matrix::random_gaussian(k, n, rng);
  Matrix c(m, n);
  for (auto _ : state) {
    la::gemm_raw(m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.0,
                 c.data(), c.ld());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * double(m) * double(n) * double(k) * double(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmRaw)
    ->Args({64, 64, 64})
    ->Args({64, 64, 2048})
    ->Args({2048, 64, 64})
    ->Args({192, 192, 64})
    ->Args({64, 64, 8})
    ->Args({4096, 1, 64})
    ->Args({4096, 8, 64});

// Block lu_solve on an n x n factor with B right-hand sides: 2 n^2 B
// flops (forward and back substitution).
static void BM_LuSolveBlock(benchmark::State& state) {
  const index_t n = state.range(0), nrhs = state.range(1);
  std::mt19937_64 rng(6);
  Matrix a = Matrix::random_gaussian(n, n, rng);
  for (index_t i = 0; i < n; ++i) a(i, i) += double(n);
  const la::LuFactor f = la::lu_factor(a);
  const Matrix rhs = Matrix::random_gaussian(n, nrhs, rng);
  Matrix x(n, nrhs);
  for (auto _ : state) {
    state.PauseTiming();
    x = rhs;
    state.ResumeTiming();
    la::lu_solve(f, x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * double(n) * double(n) * double(nrhs) *
          double(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuSolveBlock)->Args({256, 64})->Args({128, 64});

static void BM_LuFactor(benchmark::State& state) {
  const index_t n = state.range(0);
  std::mt19937_64 rng(2);
  Matrix a = Matrix::random_gaussian(n, n, rng);
  for (index_t i = 0; i < n; ++i) a(i, i) += double(n);
  for (auto _ : state) {
    la::LuFactor f = la::lu_factor(a);
    benchmark::DoNotOptimize(f.lu.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      (2.0 / 3.0) * double(n) * double(n) * double(n) *
          double(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuFactor)->Arg(128)->Arg(256)->Arg(512);

static void BM_PivotedQr(benchmark::State& state) {
  const index_t n = state.range(0);
  std::mt19937_64 rng(3);
  Matrix a = Matrix::random_gaussian(2 * n, n, rng);
  for (auto _ : state) {
    la::QrFactor f = la::qr_factor_pivoted(a);
    benchmark::DoNotOptimize(f.qr.data());
  }
}
BENCHMARK(BM_PivotedQr)->Arg(64)->Arg(128)->Arg(256);

// QRCP of an m x n sample matrix stopped at rank r: 4 m n r -
// 2 (m + n) r^2 + 4 r^3 / 3 flops.
static void set_qrcp_gflops(benchmark::State& state, index_t m, index_t n,
                            index_t r) {
  const double flops = 4.0 * double(m) * double(n) * double(r) -
                       2.0 * double(m + n) * double(r) * double(r) +
                       4.0 * double(r) * double(r) * double(r) / 3.0;
  state.counters["GFLOPS"] = benchmark::Counter(
      flops * double(state.iterations()) / 1e9, benchmark::Counter::kIsRate);
}

// The ID shapes of a skeletonization with 256-point leaves and s_max =
// 64: a leaf samples 544 rows of its 256 points, an internal node 288
// rows of its children's 128 skeleton points.
static void BM_PivotedQrLeafId(benchmark::State& state) {
  const index_t m = state.range(0), n = state.range(1), r = state.range(2);
  std::mt19937_64 rng(7);
  Matrix a = Matrix::random_gaussian(m, n, rng);
  for (auto _ : state) {
    la::QrFactor f = la::qr_factor_pivoted(a, 0.0, r);
    benchmark::DoNotOptimize(f.qr.data());
  }
  set_qrcp_gflops(state, m, n, r);
}
BENCHMARK(BM_PivotedQrLeafId)->Args({544, 256, 64})->Args({288, 128, 64});

// The whole ID on the same shapes: the QRCP plus R11^-1 R12 and P, rated
// by the QRCP's flops alone so the two rates compare.
static void BM_InterpolativeDecomposition(benchmark::State& state) {
  const index_t m = state.range(0), n = state.range(1), r = state.range(2);
  std::mt19937_64 rng(7);
  Matrix a = Matrix::random_gaussian(m, n, rng);
  for (auto _ : state) {
    la::IdResult id = la::interpolative_decomposition(a, 0.0, r);
    benchmark::DoNotOptimize(id.p.data());
  }
  set_qrcp_gflops(state, m, n, r);
}
BENCHMARK(BM_InterpolativeDecomposition)
    ->Args({544, 256, 64})
    ->Args({288, 128, 64});

static void BM_GsksApply(benchmark::State& state) {
  const index_t n = state.range(0);
  const index_t d = state.range(1);
  std::mt19937_64 rng(4);
  Matrix pts = Matrix::random_gaussian(d, 2 * n, rng);
  kernel::KernelMatrix km(pts, kernel::Kernel::gaussian(1.0));
  std::vector<index_t> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), index_t{0});
  std::vector<index_t> cols(static_cast<size_t>(n));
  std::iota(cols.begin(), cols.end(), n);
  std::vector<double> u(static_cast<size_t>(n), 1.0);
  std::vector<double> y(static_cast<size_t>(n), 0.0);
  for (auto _ : state) {
    kernel::gsks_apply(km, rows, cols, u, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * double(n) * double(n) * double(d) * double(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GsksApply)
    ->Args({1024, 8})
    ->Args({1024, 64})
    ->Args({2048, 8})
    ->Args({2048, 64});

// Expanded BENCHMARK_MAIN() so the obs counters accumulated across all
// benchmark iterations (gemm calls/flops, gsks evals) land in a
// machine-readable BENCH_micro_la.json next to the console table.
int main(int argc, char** argv) {
  bench::obs_begin();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::write_bench_json("micro_la");
  return 0;
}
