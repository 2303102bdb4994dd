#include "host.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string str(const std::string& s) { return "\"" + s + "\""; }

bool isa(const char* flag) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (std::strcmp(flag, "avx2") == 0) return __builtin_cpu_supports("avx2");
  if (std::strcmp(flag, "fma") == 0) return __builtin_cpu_supports("fma");
  if (std::strcmp(flag, "avx512f") == 0)
    return __builtin_cpu_supports("avx512f");
#endif
  (void)flag;
  return false;
}

/// Last-level cache size in bytes from sysfs, 0 if unknown.
size_t llc_bytes() {
  size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(idx) + "/size");
    std::string s;
    if (!(f >> s) || s.empty()) continue;
    size_t mult = 1;
    if (s.back() == 'K') mult = 1024;
    if (s.back() == 'M') mult = 1024 * 1024;
    best = std::max<size_t>(best, std::strtoull(s.c_str(), nullptr, 10) * mult);
  }
  return best;
}

/// Best-of-3 single-threaded copy bandwidth over arrays of `bytes` each,
/// counting one read and one write per element.
double stream_copy_gbs(size_t bytes) {
  const size_t n = bytes / sizeof(double);
  std::vector<double> a(n, 1.0), b(n, 0.0);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::memcpy(b.data(), a.data(), n * sizeof(double));
    const double s = since(t0);
    a[rep] = b[n - 1 - static_cast<size_t>(rep)] + 1.0;
    if (s > 0.0) best = std::max(best, 2.0 * double(n * sizeof(double)) / s);
  }
  return best / 1e9;
}

/// Single-threaded multiply-add loop over 16 independent chains.
double fma_loop_gflops() {
  constexpr int kChains = 16;
  constexpr long kIters = 20'000'000;
  volatile double seed = 1.0;
  double acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = seed * (1.0 + c * 1e-3);
  const double mul = seed * 0.999999999, add = seed * 1e-9;
  const auto t0 = Clock::now();
  for (long i = 0; i < kIters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * mul + add;
  const double s = since(t0);
  double sink = 0.0;
  for (double v : acc) sink += v;
  seed = sink;
  return s > 0.0 ? 2.0 * kChains * double(kIters) / s / 1e9 : 0.0;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> host_record() {
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("host.nproc", num(double(sysconf(_SC_NPROCESSORS_ONLN))));
#ifdef _OPENMP
  out.emplace_back("host.omp_threads", num(omp_get_max_threads()));
#else
  out.emplace_back("host.omp_threads", "1");
#endif
  std::string flags;
  for (const char* f : {"avx2", "fma", "avx512f"})
    if (isa(f)) flags += std::string(flags.empty() ? "" : ",") + f;
  out.emplace_back("host.isa", str(flags));
  const size_t llc = llc_bytes();
  out.emplace_back("host.llc_bytes", num(double(llc)));
  // Arrays of four times the last-level cache, capped at 512 MiB each.
  const size_t bytes =
      std::clamp<size_t>(4 * llc, size_t{64} << 20, size_t{512} << 20);
  out.emplace_back("host.stream_array_bytes", num(double(bytes)));
  out.emplace_back("host.stream_gbs", num(stream_copy_gbs(bytes)));
  out.emplace_back("host.fma_gflops", num(fma_loop_gflops()));
  return out;
}

}  // namespace perfbench
