// Level-2/3 BLAS-style matrix kernels: GEMV and a blocked, packed GEMM.
//
// This file substitutes for the MKL DGEMM/DGEMV calls in the paper.
// gemm_raw runs one of two register-blocked kernel families
// (la/kernels.hpp). Small products take the direct family, which adds
// each term straight into C. Larger ones take the chunked family: a
// cache-blocked, operand-packing loop nest (a miniature BLIS) that sums
// each entry in 256-deep chunks. Each family is compiled for AVX-512F,
// AVX2 and the baseline x86-64 ISA, and the CPU's best is picked once.
// All three round every product and sum of an entry in the same order,
// so a result is bitwise the same on every CPU. gemm() also splits its
// column panels across OpenMP threads.
//
// Observability counting convention (enforced across la/): a routine
// bumps its `*.calls` counter exactly once per invocation, AFTER its
// argument validation — a call that throws on a shape mismatch must not
// inflate the work counters the bench regression gate compares against.
// Raw-pointer routines (gemm_raw) have no validation by contract and
// count at entry, so even a beta-scale-only call (m/n/k zero or
// alpha == 0 with beta != 1, which still mutates C) is visible to
// profiling. `flops.*` accumulates only the multiply-add work actually
// executed (2mnk for GEMM, 2mn for GEMV); scale-only and empty calls
// therefore contribute a call with zero flops.
#pragma once

#include <span>

#include "la/matrix.hpp"

namespace fdks::la {

enum class Trans { No, Yes };

/// y = beta*y + alpha * op(A) * x, with op controlled by trans.
void gemv(Trans trans, double alpha, const Matrix& a,
          std::span<const double> x, double beta, std::span<double> y);

/// Raw-pointer GEMV on a column-major block: y = beta*y + alpha*A*x with
/// A m-by-n, leading dimension lda. Used by the kernel-summation tiles.
void gemv_raw(index_t m, index_t n, double alpha, const double* a,
              index_t lda, const double* x, double beta, double* y);

/// C = beta*C + alpha * op(A) * op(B). Shapes are validated.
void gemm(Trans ta, Trans tb, double alpha, const Matrix& a, const Matrix& b,
          double beta, Matrix& c);

/// C = beta*C + alpha * A * B on strided column-major views (no
/// transposes). Shapes are validated. This is the workhorse of the
/// block (multi-RHS) solve path: skeleton applications on an [n x B]
/// view become one GEMM instead of B GEMVs.
void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c);

/// Convenience: C = op(A)*op(B).
Matrix matmul(Trans ta, Trans tb, const Matrix& a, const Matrix& b);

/// Convenience: C = A*B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// Triple-loop reference GEMM for correctness tests; same semantics as
/// gemm() but with no blocking or parallelism.
void gemm_ref(Trans ta, Trans tb, double alpha, const Matrix& a,
              const Matrix& b, double beta, Matrix& c);

/// Raw-pointer GEMM on column-major blocks (no transposes):
/// C(m,n) = beta*C + alpha*A(m,k)*B(k,n). Used inside tiled kernels.
/// Products with m*n*k <= 32^3 take the direct family: each entry adds
/// A(i,p) * (alpha B(p,j)) in ascending p, skipping zero terms of
/// alpha B. Larger ones take the chunked family. Its narrow right-hand
/// sides (n <= 4) skip the packing of B but keep the packed arithmetic,
/// so a result never depends on which of the two ran; a 1-column GEMM
/// costs about what the GEMV does.
void gemm_raw(index_t m, index_t n, index_t k, double alpha, const double* a,
              index_t lda, const double* b, index_t ldb, double beta,
              double* c, index_t ldc);

}  // namespace fdks::la
