// The register-blocked kernel families behind la::gemm_raw and the LU
// triangular solves. Internal to src/la; tests include it to reach each
// instantiation.
//
// Each family is written once (kernels.cpp) over a vector width and a
// micro-tile shape, and compiled three times through `target`
// attributes: AVX-512F, AVX2 and the baseline x86-64 ISA (only the
// baseline elsewhere). The set this CPU runs is picked once per process
// with __builtin_cpu_supports. For every entry of C, every instantiation
// performs the same multiplies and adds in the same order, so a result
// is bitwise the same whichever set ran. That holds because the library
// is built with -ffp-contract=off: GCC would otherwise contract the
// AVX-512 bodies' a * b + c into FMAs, whose single rounding changes
// the last bits.
#pragma once

#include "la/matrix.hpp"

namespace fdks::la::detail {

enum class Isa { Baseline, Avx2, Avx512 };

struct KernelSet {
  /// Chunked family: C(m, n) += alpha * A(m, k) * B(k, n), column-major.
  /// For each entry, every 256-deep chunk of its k terms is summed from
  /// 0 in ascending order, and alpha times that partial sum is added to
  /// C, chunk after chunk.
  void (*chunked)(index_t m, index_t n, index_t k, double alpha,
                  const double* a, index_t lda, const double* b, index_t ldb,
                  double* c, index_t ldc);
  /// Direct family: C(m, n) += A(m, k) * (alpha B)(k, n), one term at a
  /// time straight into C in ascending p; a term whose alpha * B(p, j) is
  /// zero is skipped. A(i, p) = a[i + p * lda] and B(p, j) =
  /// b[p * sb + j * ldb]; a negative lda and sb run the terms backwards.
  void (*direct)(index_t m, index_t n, index_t k, double alpha,
                 const double* a, index_t lda, const double* b, index_t sb,
                 index_t ldb, double* c, index_t ldc);
};

/// The set the calling thread runs.
const KernelSet& kernels();

/// Whether this CPU runs `isa`'s set.
bool isa_supported(Isa isa);

const char* isa_name(Isa isa);

/// Test entry point: while alive, the calling thread runs `isa`'s set,
/// which must be supported. OpenMP workers keep the CPU's set.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  const KernelSet* prev_;
};

}  // namespace fdks::la::detail
