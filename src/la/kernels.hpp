// The kernel families behind la::gemm_raw, the LU triangular solves
// and the Householder QR (la/qr.hpp). Internal to src/la; tests include
// it to reach each instantiation.
//
// Each family is written once (kernels.cpp) over a vector width and a
// tile shape, and compiled three times through `target` attributes:
// AVX-512F, AVX2 and the baseline x86-64 ISA (only the baseline
// elsewhere). The set this CPU runs is picked once per process with
// __builtin_cpu_supports. For every output entry, every instantiation
// performs the same multiplies, adds and divides in the same order, so
// a result is bitwise the same whichever set ran. That holds because
// the library is built with -ffp-contract=off: GCC would otherwise
// contract the AVX-512 bodies' a * b + c into FMAs, whose single
// rounding changes the last bits.
//
// The QR family packs the columns of A into panels of W columns, each
// panel m rows tall, contiguous and row-major inside, so one vector op
// covers one row of W columns. Step k's update of the trailing columns
// is applied in the same sweep down the rows that forms step k+1's
// reflector dot products: one pass over the trailing matrix per step,
// where the column-at-a-time loops made two. Each column still keeps
// its own chain of adds in ascending rows, so pivots, tau, R and the
// reflectors are bitwise those of the scalar loops in
// tests/reference_kernels.hpp.
#pragma once

#include "la/matrix.hpp"

namespace fdks::la::detail {

enum class Isa { Baseline, Avx2, Avx512 };

/// One Householder QR for the QR family: A*Pi = Q*R in place.
struct QrJob {
  index_t m = 0;
  index_t n = 0;
  double* a = nullptr;      ///< m-by-n, column-major; on return the
  index_t lda = 0;          ///< reflectors below the diagonal, R above.
  double* tau = nullptr;    ///< min(m, n) entries; steps not run keep 0.
  index_t* jpvt = nullptr;  ///< n entries: column k of A*Pi is column
                            ///< jpvt[k] of A (the identity unpivoted).
  bool pivot = true;        ///< Largest remaining column norm first.
  double tol = 0.0;         ///< Stop at step k when |R(k,k)| <= tol *
                            ///< |R(0,0)| (tol > 0, pivoted only).
  index_t kmax = 0;         ///< Steps at most, <= min(m, n).
  // Written by the kernel.
  index_t steps = 0;        ///< Steps completed before a tol stop, else
                            ///< kmax.
  double achieved = 0.0;    ///< QrFactor::achieved_tol (la/qr.hpp).
};

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
  /// QR family: runs `job`. Step k makes its reflector from column k,
  /// then applies it to the trailing columns: dot = A(k, j) + sum over
  /// i > k of v(i) A(i, j) in ascending i, s = dot * tau, A(k, j) -= s,
  /// A(i, j) -= s * v(i). Column norms are downdated by A(k, j)^2 and
  /// recomputed in ascending rows when cancellation took all but 1e-12.
  void (*qr)(QrJob& job);
  /// Back substitution on the k-by-k upper triangle of r, in place on
  /// the k-by-nrhs B, from i = k - 1 down: b(i) less r(i, p) x(p) for
  /// each p > i in ascending p, then divided by r(i, i).
  void (*r_solve)(index_t k, index_t nrhs, const double* r, index_t ldr,
                  double* b, index_t ldb);
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
