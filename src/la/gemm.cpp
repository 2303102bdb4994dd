#include "la/gemm.hpp"

#include <algorithm>
#include <stdexcept>

#include "la/kernels.hpp"
#include "obs/obs.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fdks::la {

namespace {

// Narrowest column block the OpenMP split in gemm() hands one thread.
constexpr index_t kNr = 8;

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

  // Small problems skip the packing machinery: each term goes straight
  // into C. Larger ones sum in 256-deep chunks (kernels.hpp).
  const detail::KernelSet& kern = detail::kernels();
  if (m * n * k <= 32 * 32 * 32)
    kern.direct(m, n, k, alpha, a, lda, b, 1, ldb, c, ldc);
  else
    kern.chunked(m, n, k, alpha, a, lda, b, ldb, c, ldc);
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
