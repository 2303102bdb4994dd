#include "la/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fdks::la {

namespace {

// Cache-blocking parameters. Tuned for a generic x86 with 32 KiB L1 /
// 1 MiB L2; micro-tile MR x NR is what the innermost register kernel
// accumulates.
constexpr index_t kMc = 128;  // rows of A packed per block
constexpr index_t kKc = 256;  // depth per block
constexpr index_t kNc = 512;  // cols of B per panel
constexpr index_t kMr = 4;
constexpr index_t kNr = 8;
// Widest B the unpacked narrow path takes. Its time relative to the
// packed path (Release -O3, x86-64 baseline ISA, m 64..2048, k 32..512):
// about 0.2 at n = 1, 0.3 at 2, 0.45 at 3 and 0.45..0.75 at 4; from
// n = 5 on it passes 1 in some shapes, so wider blocks stay packed.
constexpr index_t kNarrowMax = 4;

// Pack an mc-by-kc block of A (column-major, lda) into row-panels of
// height kMr so the micro-kernel streams it contiguously.
void pack_a(const double* a, index_t lda, index_t mc, index_t kc,
            double* dst) {
  for (index_t i0 = 0; i0 < mc; i0 += kMr) {
    const index_t mr = std::min(kMr, mc - i0);
    for (index_t p = 0; p < kc; ++p) {
      for (index_t i = 0; i < mr; ++i) *dst++ = a[(i0 + i) + p * lda];
      for (index_t i = mr; i < kMr; ++i) *dst++ = 0.0;
    }
  }
}

// Pack a kc-by-nc block of B into column-panels of width kNr.
void pack_b(const double* b, index_t ldb, index_t kc, index_t nc,
            double* dst) {
  for (index_t j0 = 0; j0 < nc; j0 += kNr) {
    const index_t nr = std::min(kNr, nc - j0);
    for (index_t p = 0; p < kc; ++p) {
      for (index_t j = 0; j < nr; ++j) *dst++ = b[p + (j0 + j) * ldb];
      for (index_t j = nr; j < kNr; ++j) *dst++ = 0.0;
    }
  }
}

// kMr x kNr micro-kernel: C += Apanel * Bpanel over kc, then merge the
// accumulator into C with the (possibly partial) tile bounds.
void micro_kernel(index_t kc, const double* ap, const double* bp, double* c,
                  index_t ldc, index_t mr, index_t nr, double alpha) {
  double acc[kMr * kNr] = {0.0};
  for (index_t p = 0; p < kc; ++p) {
    const double* arow = ap + p * kMr;
    const double* brow = bp + p * kNr;
    for (index_t j = 0; j < kNr; ++j) {
      const double bj = brow[j];
      for (index_t i = 0; i < kMr; ++i) acc[i + j * kMr] += arow[i] * bj;
    }
  }
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i)
      c[i + j * ldc] += alpha * acc[i + j * kMr];
}

// Narrow right-hand sides (n <= kNarrowMax): the packed path would pad
// every B panel to kNr columns and stream mostly zeros through the
// micro-kernel. Accumulate straight from A instead, with the
// micro-kernel's exact arithmetic — per kKc chunk, each entry's partial
// sum starts at 0 and is added to C times alpha — so the result is
// bitwise the packed one.
void narrow_kernel(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b,
                   index_t ldb, double* c, index_t ldc) {
  double acc[kMc * kNarrowMax] = {0.0};
  for (index_t ic = 0; ic < m; ic += kMc) {
    const index_t mc = std::min(kMc, m - ic);
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);
      std::fill(acc, acc + kMc * n, 0.0);
      for (index_t p = pc; p < pc + kc; ++p) {
        const double* acol = a + ic + p * lda;
        for (index_t j = 0; j < n; ++j) {
          const double bj = b[p + j * ldb];
          double* accj = acc + j * kMc;
          for (index_t i = 0; i < mc; ++i) accj[i] += acol[i] * bj;
        }
      }
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < mc; ++i)
          c[(ic + i) + j * ldc] += alpha * acc[i + j * kMc];
    }
  }
}

}  // namespace

void gemm_raw(index_t m, index_t n, index_t k, double alpha, const double* a,
              index_t lda, const double* b, index_t ldb, double beta,
              double* c, index_t ldc) {
  // Counting convention (see gemm.hpp): raw routines count the call at
  // entry — the beta-scale below mutates C even when the multiply is
  // skipped, and a scale-only call must not be invisible to profiling.
  obs::add("gemm.calls");
  if (beta != 1.0) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        c[i + j * ldc] = (beta == 0.0) ? 0.0 : beta * c[i + j * ldc];
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  obs::add("flops.gemm", 2.0 * double(m) * double(n) * double(k));

  // Small problems: skip the packing machinery entirely.
  if (m * n * k <= 32 * 32 * 32) {
    // A row times B: the loop below would round-trip each C entry
    // through memory per term; the same sums, held in a register.
    if (m == 1) {
      for (index_t j = 0; j < n; ++j) {
        double s = c[j * ldc];
        for (index_t p = 0; p < k; ++p) {
          const double bpj = alpha * b[p + j * ldb];
          if (bpj != 0.0) s += a[p * lda] * bpj;
        }
        c[j * ldc] = s;
      }
      return;
    }
    for (index_t j = 0; j < n; ++j)
      for (index_t p = 0; p < k; ++p) {
        const double bpj = alpha * b[p + j * ldb];
        if (bpj == 0.0) continue;
        const double* acol = a + p * lda;
        double* ccol = c + j * ldc;
        for (index_t i = 0; i < m; ++i) ccol[i] += acol[i] * bpj;
      }
    return;
  }
  if (n <= kNarrowMax) {
    narrow_kernel(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }

  // Pack buffers are fixed-size (kMc*kKc and kKc*kNc) and reused across
  // calls per thread: with the OpenMP column split in gemm() each thread
  // issues one gemm_raw per chunk per call, and fresh allocations here
  // were measurable churn on the factorization hot path.
  static thread_local std::vector<double> apack(
      static_cast<size_t>(kMc * kKc));
  static thread_local std::vector<double> bpack(
      static_cast<size_t>(kKc * kNc));

  for (index_t jc = 0; jc < n; jc += kNc) {
    const index_t nc = std::min(kNc, n - jc);
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);
      pack_b(b + pc + jc * ldb, ldb, kc, nc, bpack.data());
      for (index_t ic = 0; ic < m; ic += kMc) {
        const index_t mc = std::min(kMc, m - ic);
        pack_a(a + ic + pc * lda, lda, mc, kc, apack.data());
        for (index_t jr = 0; jr < nc; jr += kNr) {
          const index_t nr = std::min(kNr, nc - jr);
          const double* bp = bpack.data() + (jr / kNr) * kc * kNr;
          for (index_t ir = 0; ir < mc; ir += kMr) {
            const index_t mr = std::min(kMr, mc - ir);
            const double* ap = apack.data() + (ir / kMr) * kc * kMr;
            micro_kernel(kc, ap, bp, c + (ic + ir) + (jc + jr) * ldc, ldc,
                         mr, nr, alpha);
          }
        }
      }
    }
  }
}

void gemv(Trans trans, double alpha, const Matrix& a,
          std::span<const double> x, double beta, std::span<double> y) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  // Validate before counting (see gemm.hpp): a throwing call must not
  // inflate gemv.calls / flops.gemv — those feed the bench regression
  // gate's flop accounting.
  if (trans == Trans::No) {
    if (static_cast<index_t>(x.size()) != n ||
        static_cast<index_t>(y.size()) != m)
      throw std::invalid_argument("gemv: shape mismatch");
    obs::add("gemv.calls");
    obs::add("flops.gemv", 2.0 * double(m) * double(n));
    for (index_t i = 0; i < m; ++i) y[i] = (beta == 0.0) ? 0.0 : beta * y[i];
    for (index_t j = 0; j < n; ++j) {
      const double xj = alpha * x[j];
      if (xj == 0.0) continue;
      const double* col = a.col(j);
      for (index_t i = 0; i < m; ++i) y[i] += col[i] * xj;
    }
  } else {
    if (static_cast<index_t>(x.size()) != m ||
        static_cast<index_t>(y.size()) != n)
      throw std::invalid_argument("gemv^T: shape mismatch");
    obs::add("gemv.calls");
    obs::add("flops.gemv", 2.0 * double(m) * double(n));
    for (index_t j = 0; j < n; ++j) {
      const double* col = a.col(j);
      double s = 0.0;
      for (index_t i = 0; i < m; ++i) s += col[i] * x[i];
      y[j] = ((beta == 0.0) ? 0.0 : beta * y[j]) + alpha * s;
    }
  }
}

void gemv_raw(index_t m, index_t n, double alpha, const double* a,
              index_t lda, const double* x, double beta, double* y) {
  for (index_t i = 0; i < m; ++i) y[i] = (beta == 0.0) ? 0.0 : beta * y[i];
  for (index_t j = 0; j < n; ++j) {
    const double xj = alpha * x[j];
    if (xj == 0.0) continue;
    const double* col = a + j * lda;
    for (index_t i = 0; i < m; ++i) y[i] += col[i] * xj;
  }
}

void gemm(Trans ta, Trans tb, double alpha, const Matrix& a, const Matrix& b,
          double beta, Matrix& c) {
  // Materialize op(A)/op(B) when a transpose is requested; the solver's
  // hot paths are all non-transposed, so the copy is acceptable here.
  Matrix atmp, btmp;
  const Matrix* ap = &a;
  const Matrix* bp = &b;
  if (ta == Trans::Yes) {
    atmp = a.transposed();
    ap = &atmp;
  }
  if (tb == Trans::Yes) {
    btmp = b.transposed();
    bp = &btmp;
  }
  const index_t m = ap->rows();
  const index_t k = ap->cols();
  const index_t n = bp->cols();
  if (bp->rows() != k || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm: shape mismatch");

#ifdef _OPENMP
  // Split the C panel across threads by column blocks when the problem is
  // big enough to amortize; each thread runs an independent gemm_raw.
  const bool parallel = (m * n * k > 64LL * 64 * 64) && omp_get_max_threads() > 1;
  if (parallel) {
    const index_t nthreads = omp_get_max_threads();
    const index_t chunk = std::max<index_t>(kNr, (n + nthreads - 1) / nthreads);
#pragma omp parallel for schedule(static)
    for (index_t j0 = 0; j0 < n; j0 += chunk) {
      const index_t nc = std::min(chunk, n - j0);
      gemm_raw(m, nc, k, alpha, ap->data(), ap->ld(),
               bp->col(j0), bp->ld(), beta, c.col(j0), c.ld());
    }
    return;
  }
#endif
  gemm_raw(m, n, k, alpha, ap->data(), ap->ld(), bp->data(), bp->ld(), beta,
           c.data(), c.ld());
}

void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c) {
  if (b.rows() != a.cols() || c.rows() != a.rows() || c.cols() != b.cols())
    throw std::invalid_argument("gemm: view shape mismatch");
  const index_t m = a.rows();
  const index_t k = a.cols();
  const index_t n = b.cols();
#ifdef _OPENMP
  // Same column-block split as the Matrix overload above: the batched
  // multi-RHS solve path funnels its big [n x B] panels through this
  // overload, and a serial gemm here forfeits the batching win.
  const bool parallel =
      (m * n * k > 64LL * 64 * 64) && omp_get_max_threads() > 1;
  if (parallel) {
    const index_t nthreads = omp_get_max_threads();
    const index_t chunk = std::max<index_t>(kNr, (n + nthreads - 1) / nthreads);
#pragma omp parallel for schedule(static)
    for (index_t j0 = 0; j0 < n; j0 += chunk) {
      const index_t nc = std::min(chunk, n - j0);
      gemm_raw(m, nc, k, alpha, a.data(), a.ld(), b.col(j0), b.ld(), beta,
               c.col(j0), c.ld());
    }
    return;
  }
#endif
  gemm_raw(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), beta, c.data(),
           c.ld());
}

Matrix matmul(Trans ta, Trans tb, const Matrix& a, const Matrix& b) {
  const index_t m = (ta == Trans::No) ? a.rows() : a.cols();
  const index_t n = (tb == Trans::No) ? b.cols() : b.rows();
  Matrix c(m, n);
  gemm(ta, tb, 1.0, a, b, 0.0, c);
  return c;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  return matmul(Trans::No, Trans::No, a, b);
}

void gemm_ref(Trans ta, Trans tb, double alpha, const Matrix& a,
              const Matrix& b, double beta, Matrix& c) {
  const index_t m = (ta == Trans::No) ? a.rows() : a.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  const index_t n = (tb == Trans::No) ? b.cols() : b.rows();
  const index_t kb = (tb == Trans::No) ? b.rows() : b.cols();
  if (k != kb || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm_ref: shape mismatch");
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t p = 0; p < k; ++p) {
        const double av = (ta == Trans::No) ? a(i, p) : a(p, i);
        const double bv = (tb == Trans::No) ? b(p, j) : b(j, p);
        s += av * bv;
      }
      c(i, j) = ((beta == 0.0) ? 0.0 : beta * c(i, j)) + alpha * s;
    }
}

}  // namespace fdks::la
