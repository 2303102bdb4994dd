#include "la/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

// Each family body below is an always-inline template. The per-ISA entry
// points at the end of this file instantiate it inside a function built
// for that ISA, so the whole body is compiled for it.
#define FDKS_KERNEL_INLINE [[gnu::always_inline]] inline

namespace fdks::la::detail {

namespace {

// Cache blocking of the chunked family's packed path. kKc is also the
// chunk depth, so it fixes the summation order and must stay 256; kMc
// and kNc only partition the entries.
constexpr index_t kMc = 128;  // rows of A packed per block
constexpr index_t kKc = 256;  // depth per block: one chunk
constexpr index_t kNc = 512;  // cols of B per panel
// Widest B the chunked family reads unpacked. Its time relative to the
// packed path (Release -O3, x86-64 baseline ISA, m 64..2048, k 32..512):
// about 0.2 at n = 1, 0.3 at 2, 0.45 at 3 and 0.45..0.75 at 4; from
// n = 5 on it passes 1 in some shapes, so wider blocks stay packed.
constexpr index_t kNarrowMax = 4;

// W doubles per vector register. U is the unaligned, aliasing spelling
// of V for loads and stores, and M a lane mask for V. Vectors pass by
// reference only: a vector argument or return value would change the
// ABI between the ISAs.
template <int W>
struct Simd {
  typedef double V __attribute__((vector_size(W * sizeof(double))));
  typedef double U __attribute__((vector_size(W * sizeof(double)),
                                  aligned(alignof(double)), may_alias));
  typedef long long M __attribute__((vector_size(W * sizeof(double))));
  FDKS_KERNEL_INLINE static void load(V& v, const double* p) {
    v = *reinterpret_cast<const U*>(p);
  }
  FDKS_KERNEL_INLINE static void store(double* p, const V& v) {
    *reinterpret_cast<U*>(p) = v;
  }
};

// ---- Chunked family ------------------------------------------------

// A 64-byte aligned window of n doubles in a per-thread buffer.
double* scratch(std::vector<double>& buf, size_t n) {
  if (buf.size() < n + 8) buf.resize(n + 8);
  const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
  return buf.data() + ((64 - addr % 64) % 64) / sizeof(double);
}

// Pack an mc-by-kc block of A into row panels of height MR, zero-padded.
template <index_t MR>
FDKS_KERNEL_INLINE void pack_a(const double* a, index_t lda, index_t mc,
                               index_t kc, double* dst) {
  for (index_t i0 = 0; i0 < mc; i0 += MR) {
    const index_t mr = std::min(MR, mc - i0);
    for (index_t p = 0; p < kc; ++p) {
      const double* src = a + i0 + p * lda;
      for (index_t i = 0; i < mr; ++i) *dst++ = src[i];
      for (index_t i = mr; i < MR; ++i) *dst++ = 0.0;
    }
  }
}

// Pack a kc-by-nc block of B into column panels of width NR.
template <index_t NR>
FDKS_KERNEL_INLINE void pack_b(const double* b, index_t ldb, index_t kc,
                               index_t nc, double* dst) {
  for (index_t j0 = 0; j0 < nc; j0 += NR) {
    const index_t nr = std::min(NR, nc - j0);
    for (index_t p = 0; p < kc; ++p) {
      for (index_t j = 0; j < nr; ++j) *dst++ = b[p + (j0 + j) * ldb];
      for (index_t j = nr; j < NR; ++j) *dst++ = 0.0;
    }
  }
}

// Add alpha * acc, an (R * W)-by-NC register tile, to C. Only the first
// mr rows and nc columns are C's; the rest is padding.
template <int W, int R, int NC>
FDKS_KERNEL_INLINE void merge_tile(const typename Simd<W>::V (&acc)[NC][R],
                                   double alpha, double* c, index_t ldc,
                                   index_t mr, index_t nc) {
  if (mr == R * W && nc == NC) {
    for (int j = 0; j < NC; ++j)
      for (int r = 0; r < R; ++r) {
        double* cp = c + r * W + j * ldc;
        typename Simd<W>::V cv;
        Simd<W>::load(cv, cp);
        cv += alpha * acc[j][r];
        Simd<W>::store(cp, cv);
      }
    return;
  }
  double t[NC][R * W];
  for (int j = 0; j < NC; ++j)
    for (int r = 0; r < R; ++r) Simd<W>::store(t[j] + r * W, acc[j][r]);
  for (index_t j = 0; j < nc; ++j)
    for (index_t i = 0; i < mr; ++i) c[i + j * ldc] += alpha * t[j][i];
}

// (R * W)-by-NR tile of the packed path: acc = Apanel * Bpanel over one
// chunk, from 0, then C += alpha * acc.
template <int W, int R, int NR>
FDKS_KERNEL_INLINE void packed_tile(index_t kc, const double* ap,
                                    const double* bp, double alpha, double* c,
                                    index_t ldc, index_t mr, index_t nr) {
  using V = typename Simd<W>::V;
  V acc[NR][R];
  for (int j = 0; j < NR; ++j)
    for (int r = 0; r < R; ++r) acc[j][r] = V{};
  for (index_t p = 0; p < kc; ++p) {
    V av[R];
    for (int r = 0; r < R; ++r) Simd<W>::load(av[r], ap + (p * R + r) * W);
    for (int j = 0; j < NR; ++j) {
      const double bj = bp[p * NR + j];
      for (int r = 0; r < R; ++r) acc[j][r] += av[r] * bj;
    }
  }
  merge_tile<W, R, NR>(acc, alpha, c, ldc, mr, nr);
}

// Per-thread pack buffers, reused across calls: fresh allocations per
// call were measurable churn on the factorization hot path.
thread_local std::vector<double> t_apack;
thread_local std::vector<double> t_bpack;

template <int W, int R, int NR>
FDKS_KERNEL_INLINE void chunked_packed(index_t m, index_t n, index_t k,
                                       double alpha, const double* a,
                                       index_t lda, const double* b,
                                       index_t ldb, double* c, index_t ldc) {
  constexpr index_t kMr = R * W;
  double* apack = scratch(t_apack, static_cast<size_t>((kMc + kMr) * kKc));
  double* bpack = scratch(t_bpack, static_cast<size_t>(kKc * (kNc + NR)));
  for (index_t jc = 0; jc < n; jc += kNc) {
    const index_t nc = std::min(kNc, n - jc);
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);
      pack_b<NR>(b + pc + jc * ldb, ldb, kc, nc, bpack);
      for (index_t ic = 0; ic < m; ic += kMc) {
        const index_t mc = std::min(kMc, m - ic);
        pack_a<kMr>(a + ic + pc * lda, lda, mc, kc, apack);
        for (index_t jr = 0; jr < nc; jr += NR) {
          const index_t nr = std::min<index_t>(NR, nc - jr);
          const double* bp = bpack + (jr / NR) * kc * NR;
          for (index_t ir = 0; ir < mc; ir += kMr) {
            const index_t mr = std::min(kMr, mc - ir);
            const double* ap = apack + (ir / kMr) * kc * kMr;
            packed_tile<W, R, NR>(kc, ap, bp, alpha,
                                  c + (ic + ir) + (jc + jr) * ldc, ldc, mr,
                                  nr);
          }
        }
      }
    }
  }
}

// (R * W)-by-NC tile of the narrow path, read straight from A: the
// packed path's arithmetic without padding B to NR columns.
template <int W, int R, int NC>
FDKS_KERNEL_INLINE void narrow_tile(index_t kc, const double* a, index_t lda,
                                    const double* b, index_t ldb,
                                    double alpha, double* c, index_t ldc) {
  using V = typename Simd<W>::V;
  V acc[NC][R];
  for (int j = 0; j < NC; ++j)
    for (int r = 0; r < R; ++r) acc[j][r] = V{};
  for (index_t p = 0; p < kc; ++p) {
    V av[R];
    for (int r = 0; r < R; ++r) Simd<W>::load(av[r], a + r * W + p * lda);
    for (int j = 0; j < NC; ++j) {
      const double bj = b[p + j * ldb];
      for (int r = 0; r < R; ++r) acc[j][r] += av[r] * bj;
    }
  }
  merge_tile<W, R, NC>(acc, alpha, c, ldc, R * W, NC);
}

// Narrow right-hand sides (n = NC <= kNarrowMax): whole register tiles,
// then single-vector tiles, then the last rows one at a time.
template <int W, int R, int NC>
FDKS_KERNEL_INLINE void chunked_narrow(index_t m, index_t k, double alpha,
                                       const double* a, index_t lda,
                                       const double* b, index_t ldb,
                                       double* c, index_t ldc) {
  index_t i = 0;
  for (; i + R * W <= m; i += R * W)
    for (index_t pc = 0; pc < k; pc += kKc)
      narrow_tile<W, R, NC>(std::min(kKc, k - pc), a + i + pc * lda, lda,
                            b + pc, ldb, alpha, c + i, ldc);
  for (; i + W <= m; i += W)
    for (index_t pc = 0; pc < k; pc += kKc)
      narrow_tile<W, 1, NC>(std::min(kKc, k - pc), a + i + pc * lda, lda,
                            b + pc, ldb, alpha, c + i, ldc);
  for (; i < m; ++i)
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t pe = std::min(k, pc + kKc);
      double s[NC] = {};
      for (index_t p = pc; p < pe; ++p)
        for (int j = 0; j < NC; ++j) s[j] += a[i + p * lda] * b[p + j * ldb];
      for (int j = 0; j < NC; ++j) c[i + j * ldc] += alpha * s[j];
    }
}

template <int W, int R, int NR>
FDKS_KERNEL_INLINE void chunked_body(index_t m, index_t n, index_t k,
                                     double alpha, const double* a,
                                     index_t lda, const double* b,
                                     index_t ldb, double* c, index_t ldc) {
  static_assert(kNarrowMax == 4, "one narrow instantiation per width");
  switch (n) {
    case 1:
      return chunked_narrow<W, R, 1>(m, k, alpha, a, lda, b, ldb, c, ldc);
    case 2:
      return chunked_narrow<W, R, 2>(m, k, alpha, a, lda, b, ldb, c, ldc);
    case 3:
      return chunked_narrow<W, R, 3>(m, k, alpha, a, lda, b, ldb, c, ldc);
    case 4:
      return chunked_narrow<W, R, 4>(m, k, alpha, a, lda, b, ldb, c, ldc);
    default:
      return chunked_packed<W, R, NR>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  }
}

// ---- Direct family -------------------------------------------------

// (R * W)-by-NC tile of C held in registers over all k terms.
template <int W, int R, int NC>
FDKS_KERNEL_INLINE void direct_tile(index_t k, double alpha, const double* a,
                                    index_t lda, const double* b, index_t sb,
                                    index_t ldb, double* c, index_t ldc) {
  using V = typename Simd<W>::V;
  V acc[NC][R];
  for (int j = 0; j < NC; ++j)
    for (int r = 0; r < R; ++r)
      Simd<W>::load(acc[j][r], c + r * W + j * ldc);
  for (index_t p = 0; p < k; ++p) {
    V av[R];
    for (int r = 0; r < R; ++r) Simd<W>::load(av[r], a + r * W + p * lda);
    const double* bp = b + p * sb;
    for (int j = 0; j < NC; ++j) {
      const double s = alpha * bp[j * ldb];
      if (s == 0.0) continue;
      for (int r = 0; r < R; ++r) acc[j][r] += av[r] * s;
    }
  }
  for (int j = 0; j < NC; ++j)
    for (int r = 0; r < R; ++r)
      Simd<W>::store(c + r * W + j * ldc, acc[j][r]);
}

// One row of C, NC columns: one independent sum per column.
template <int NC>
FDKS_KERNEL_INLINE void direct_row_tile(index_t k, double alpha,
                                        const double* a, index_t lda,
                                        const double* b, index_t sb,
                                        index_t ldb, double* c, index_t ldc) {
  double s[NC];
  for (int j = 0; j < NC; ++j) s[j] = c[j * ldc];
  for (index_t p = 0; p < k; ++p) {
    const double ap = a[p * lda];
    const double* bp = b + p * sb;
    for (int j = 0; j < NC; ++j) {
      const double t = alpha * bp[j * ldb];
      if (t != 0.0) s[j] += ap * t;
    }
  }
  for (int j = 0; j < NC; ++j) c[j * ldc] = s[j];
}

// Rows [0, R * W) of C across all n columns.
template <int W, int R, int NR>
FDKS_KERNEL_INLINE void direct_cols(index_t n, index_t k, double alpha,
                                    const double* a, index_t lda,
                                    const double* b, index_t sb, index_t ldb,
                                    double* c, index_t ldc) {
  index_t j = 0;
  for (; j + NR <= n; j += NR)
    direct_tile<W, R, NR>(k, alpha, a, lda, b + j * ldb, sb, ldb, c + j * ldc,
                          ldc);
  for (; j < n; ++j)
    direct_tile<W, R, 1>(k, alpha, a, lda, b + j * ldb, sb, ldb, c + j * ldc,
                         ldc);
}

// Row 0 of C across all n columns.
FDKS_KERNEL_INLINE void direct_row(index_t n, index_t k, double alpha,
                                   const double* a, index_t lda,
                                   const double* b, index_t sb, index_t ldb,
                                   double* c, index_t ldc) {
  constexpr index_t kCols = 8;
  index_t j = 0;
  for (; j + kCols <= n; j += kCols)
    direct_row_tile<kCols>(k, alpha, a, lda, b + j * ldb, sb, ldb,
                           c + j * ldc, ldc);
  for (; j < n; ++j)
    direct_row_tile<1>(k, alpha, a, lda, b + j * ldb, sb, ldb, c + j * ldc,
                       ldc);
}

// Whole register tiles, then single-vector tiles, then the last rows
// one at a time (the m == 1 case is only the last of these).
template <int W, int R, int NR>
FDKS_KERNEL_INLINE void direct_body(index_t m, index_t n, index_t k,
                                    double alpha, const double* a,
                                    index_t lda, const double* b, index_t sb,
                                    index_t ldb, double* c, index_t ldc) {
  index_t i = 0;
  for (; i + R * W <= m; i += R * W)
    direct_cols<W, R, NR>(n, k, alpha, a + i, lda, b, sb, ldb, c + i, ldc);
  for (; i + W <= m; i += W)
    direct_cols<W, 1, NR>(n, k, alpha, a + i, lda, b, sb, ldb, c + i, ldc);
  for (; i < m; ++i)
    direct_row(n, k, alpha, a + i, lda, b, sb, ldb, c + i, ldc);
}

// ---- QR family -----------------------------------------------------
//
// The columns of A are packed W at a time: panel q holds columns
// [q W, q W + W), m rows of W, row-major, so column j's row i is at
// panel(j / W)[i * W + j % W]. Lanes past n are padding; they take part
// in the vector ops but are never read back.

thread_local std::vector<double> t_qrpanels;
thread_local std::vector<double> t_qrwork;

// Rows [k, m) of G panels from `pan`, each m rows tall: applies the
// pending update x -= s * u(i) of the step before (kUpdate) and forms
// this step's dot products x(k) + sum over i > k of v(i) x(i) (kDot),
// then s = dot * tau and x(k) -= s. `s` holds the G * W lanes' scales.
// Lanes of the first panel below `lo` are never written.
template <int W, int G, bool kUpdate, bool kDot>
FDKS_KERNEL_INLINE void qr_sweep_group(index_t m, index_t k, double* pan,
                                       int lo, double* s, const double* u,
                                       const double* v, double tau) {
  using V = typename Simd<W>::V;
  typename Simd<W>::M keep;
  for (int c = 0; c < W; ++c) keep[c] = c < lo ? -1 : 0;
  const index_t ps = m * W;
  V sv[G], acc[G];
  if (kUpdate)
    for (int g = 0; g < G; ++g) Simd<W>::load(sv[g], s + g * W);
  for (int g = 0; g < G; ++g) {
    double* xp = pan + g * ps + k * W;
    V x;
    Simd<W>::load(x, xp);
    if (kUpdate) {
      V y = x - sv[g] * u[k];
      if (g == 0) y = keep ? x : y;
      Simd<W>::store(xp, y);
      x = y;
    }
    if (kDot) acc[g] = x;
  }
  for (index_t i = k + 1; i < m; ++i) {
    const double ui = kUpdate ? u[i] : 0.0;
    const double vi = kDot ? v[i] : 0.0;
    for (int g = 0; g < G; ++g) {
      double* xp = pan + g * ps + i * W;
      V x;
      Simd<W>::load(x, xp);
      if (kUpdate) {
        V y = x - sv[g] * ui;
        if (g == 0) y = keep ? x : y;
        Simd<W>::store(xp, y);
        x = y;
      }
      if (kDot) acc[g] = acc[g] + vi * x;
    }
  }
  if (!kDot) return;
  for (int g = 0; g < G; ++g) {
    const V sn = acc[g] * tau;
    Simd<W>::store(s + g * W, sn);
    double* xp = pan + g * ps + k * W;
    V x;
    Simd<W>::load(x, xp);
    V y = x - sn;
    if (g == 0) y = keep ? x : y;
    Simd<W>::store(xp, y);
  }
}

// qr_sweep_group over np panels: groups of G, then one each of the
// halves that cover the rest. Only the first group's first panel is
// partial.
template <int W, int G, bool kUpdate, bool kDot>
FDKS_KERNEL_INLINE void qr_sweep(index_t m, index_t k, double* pan,
                                 index_t np, int lo, double* s,
                                 const double* u, const double* v,
                                 double tau) {
  if (k >= m) return;
  index_t q = 0;
  for (; q + G <= np; q += G, lo = 0)
    qr_sweep_group<W, G, kUpdate, kDot>(m, k, pan + q * m * W, lo, s + q * W,
                                        u, v, tau);
  if constexpr (G > 1)
    if (q < np)
      qr_sweep<W, G / 2, kUpdate, kDot>(m, k, pan + q * m * W, np - q, lo,
                                        s + q * W, u, v, tau);
}

// Squared norms of np panels' columns into `out`, each summed from 0 in
// ascending rows.
template <int W, int G>
FDKS_KERNEL_INLINE void qr_norms(index_t m, const double* pan, index_t np,
                                 double* out) {
  using V = typename Simd<W>::V;
  index_t q = 0;
  for (; q + G <= np; q += G) {
    V acc[G];
    for (int g = 0; g < G; ++g) acc[g] = V{};
    for (index_t i = 0; i < m; ++i)
      for (int g = 0; g < G; ++g) {
        V x;
        Simd<W>::load(x, pan + (q + g) * m * W + i * W);
        acc[g] = acc[g] + x * x;
      }
    for (int g = 0; g < G; ++g) Simd<W>::store(out + (q + g) * W, acc[g]);
  }
  if constexpr (G > 1)
    if (q < np)
      qr_norms<W, G / 2>(m, pan + q * m * W, np - q, out + q * W);
}

// Column j of the panels, stride W.
template <int W>
FDKS_KERNEL_INLINE double* panel_col(double* pan, index_t m, index_t j) {
  return pan + (j / W) * m * W + j % W;
}

// The whole QR: pivot choice, then one sweep per step. Step k first
// brings column k up to date with step k-1's update and makes its
// reflector from it; one pass down rows [k, m) of the trailing columns
// then applies step k-1's update and forms step k's dot products. Step
// k's own update of those rows waits for step k+1's pass, or for the
// finish after the loop; its row k is applied at once, since the norm
// downdate and the next pivot need it.

template <int W, int G>
FDKS_KERNEL_INLINE void qr_body(QrJob& job) {
  const index_t m = job.m;
  const index_t n = job.n;
  const index_t np = (n + W - 1) / W;
  const index_t ps = m * W;
  double* pan = scratch(t_qrpanels, static_cast<size_t>(np * ps));
  double* work =
      scratch(t_qrwork, static_cast<size_t>(np * W + 2 * n + 2 * m + 8));
  double* s = work;             // pending scale per lane (first the
                                // initial norms)
  double* cn = s + np * W;      // running squared column norms
  double* ex = cn + n;          // last exactly computed norms
  double* u = ex + n;           // the pending step's reflector
  double* v = u + m;            // this step's reflector

  for (index_t q = 0; q < np; ++q)
    for (index_t c = 0; c < W; ++c) {
      double* dst = pan + q * ps + c;
      const index_t j = q * W + c;
      if (j < n) {
        const double* src = job.a + j * job.lda;
        for (index_t i = 0; i < m; ++i) dst[i * W] = src[i];
      } else {
        for (index_t i = 0; i < m; ++i) dst[i * W] = 0.0;
      }
    }
  for (index_t j = 0; j < n; ++j) job.jpvt[j] = j;
  if (job.pivot) {
    qr_norms<W, G>(m, pan, np, s);
    for (index_t j = 0; j < n; ++j) cn[j] = ex[j] = s[j];
  }

  bool pending = false;
  bool stopped = false;
  double r00 = 0.0;
  job.achieved = 0.0;
  index_t k = 0;
  for (; k < job.kmax; ++k) {
    if (job.pivot) {
      index_t p = k;
      double best = cn[k];
      for (index_t j = k + 1; j < n; ++j)
        if (cn[j] > best) {
          best = cn[j];
          p = j;
        }
      if (p != k) {
        double* ck = panel_col<W>(pan, m, k);
        double* cp = panel_col<W>(pan, m, p);
        for (index_t i = 0; i < m; ++i) std::swap(ck[i * W], cp[i * W]);
        std::swap(job.jpvt[k], job.jpvt[p]);
        std::swap(cn[k], cn[p]);
        std::swap(ex[k], ex[p]);
        std::swap(s[k], s[p]);
      }
    }

    // Column k, brought up to date, gives the reflector
    // v = [1; x(k+1:) / (alpha - beta)] with tau = (beta - alpha) / beta.
    double* ck = panel_col<W>(pan, m, k);
    double xnorm = 0.0;
    if (pending) {
      const double sk = s[k];
      ck[k * W] -= sk * u[k];
      for (index_t i = k + 1; i < m; ++i) {
        const double x = ck[i * W] - sk * u[i];
        ck[i * W] = x;
        xnorm += x * x;
      }
    } else {
      for (index_t i = k + 1; i < m; ++i) xnorm += ck[i * W] * ck[i * W];
    }
    const double alpha = ck[k * W];
    xnorm = std::sqrt(xnorm);
    double tk = 0.0;
    if (!(xnorm == 0.0 && alpha >= 0.0)) {
      const double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
      tk = (beta - alpha) / beta;
      const double scale = 1.0 / (alpha - beta);
      for (index_t i = k + 1; i < m; ++i) {
        ck[i * W] *= scale;
        v[i] = ck[i * W];
      }
      ck[k * W] = beta;
    }
    job.tau[k] = tk;
    const double rkk = std::abs(ck[k * W]);
    if (k == 0) r00 = rkk;

    // The one pass over the trailing columns.
    const index_t q0 = (k + 1) / W;
    const int lo = static_cast<int>((k + 1) % W);
    double* p0 = pan + q0 * ps;
    double* s0 = s + q0 * W;
    if (pending && tk != 0.0)
      qr_sweep<W, G, true, true>(m, k, p0, np - q0, lo, s0, u, v, tk);
    else if (pending)
      qr_sweep<W, G, true, false>(m, k, p0, np - q0, lo, s0, u, v, tk);
    else if (tk != 0.0)
      qr_sweep<W, G, false, true>(m, k, p0, np - q0, lo, s0, u, v, tk);
    pending = tk != 0.0;
    if (pending) std::swap(u, v);

    // Adaptive-rank stop (paper section II-A): this step's pivot is
    // already below tolerance and does not count.
    if (job.tol > 0.0 && r00 > 0.0 && rkk <= job.tol * r00) {
      job.achieved = rkk / r00;
      stopped = true;
      break;
    }
    if (!job.pivot) continue;

    // Downdate the trailing norms by row k of R; recompute, from the
    // rows as step k's update leaves them, where cancellation ate
    // most of the value.
    for (index_t j = k + 1; j < n; ++j) {
      const double* cj = panel_col<W>(pan, m, j);
      const double rkj = cj[k * W];
      double c2 = cn[j] - rkj * rkj;
      if (c2 <= 1e-12 * ex[j]) {
        double t = 0.0;
        if (pending) {
          const double sj = s[j];
          for (index_t i = k + 1; i < m; ++i) {
            const double x = cj[i * W] - sj * u[i];
            t += x * x;
          }
        } else {
          for (index_t i = k + 1; i < m; ++i) t += cj[i * W] * cj[i * W];
        }
        c2 = t;
        ex[j] = t;
      }
      if (c2 < 0.0) c2 = 0.0;
      cn[j] = c2;
    }
  }
  job.steps = k;
  if (job.pivot && !stopped && k < n && r00 > 0.0) {
    double best = cn[k];
    for (index_t j = k + 1; j < n; ++j)
      if (cn[j] > best) best = cn[j];
    job.achieved = std::sqrt(best) / r00;
  }

  // Finish the last step's update, then unpack.
  if (pending) {
    const index_t kl = stopped ? k : k - 1;
    const index_t q0 = (kl + 1) / W;
    qr_sweep<W, G, true, false>(m, kl + 1, pan + q0 * ps, np - q0,
                                static_cast<int>((kl + 1) % W), s + q0 * W,
                                u, v, 0.0);
  }
  for (index_t j = 0; j < n; ++j) {
    const double* src = panel_col<W>(pan, m, j);
    double* dst = job.a + j * job.lda;
    for (index_t i = 0; i < m; ++i) dst[i] = src[i * W];
  }
}

// Back substitution for G * W right-hand sides packed row-major in blk
// (k rows of G * W).
template <int W, int G>
FDKS_KERNEL_INLINE void r_solve_group(index_t k, const double* r,
                                      index_t ldr, double* blk) {
  using V = typename Simd<W>::V;
  constexpr index_t kw = G * W;
  for (index_t i = k - 1; i >= 0; --i) {
    V acc[G];
    for (int g = 0; g < G; ++g) Simd<W>::load(acc[g], blk + i * kw + g * W);
    for (index_t p = i + 1; p < k; ++p) {
      const double rip = r[i + p * ldr];
      for (int g = 0; g < G; ++g) {
        V x;
        Simd<W>::load(x, blk + p * kw + g * W);
        acc[g] = acc[g] - rip * x;
      }
    }
    const double d = r[i + i * ldr];
    for (int g = 0; g < G; ++g) {
      acc[g] = acc[g] / d;
      Simd<W>::store(blk + i * kw + g * W, acc[g]);
    }
  }
}

// The columns of B in blocks of G * W, then the halves that cover the
// rest; a block's last lanes may be zero padding.
template <int W, int G>
FDKS_KERNEL_INLINE void r_solve_body(index_t k, index_t nrhs, const double* r,
                                     index_t ldr, double* b, index_t ldb) {
  constexpr index_t kw = G * W;
  double* blk = scratch(t_qrwork, static_cast<size_t>(k * kw));
  const index_t end = G > 1 ? nrhs - nrhs % kw : nrhs;
  index_t j0 = 0;
  for (; j0 < end; j0 += kw) {
    const index_t nc = std::min(kw, nrhs - j0);
    for (index_t c = 0; c < kw; ++c)
      for (index_t i = 0; i < k; ++i)
        blk[i * kw + c] = c < nc ? b[i + (j0 + c) * ldb] : 0.0;
    r_solve_group<W, G>(k, r, ldr, blk);
    for (index_t c = 0; c < nc; ++c)
      for (index_t i = 0; i < k; ++i) b[i + (j0 + c) * ldb] = blk[i * kw + c];
  }
  if constexpr (G > 1)
    if (j0 < nrhs)
      r_solve_body<W, G / 2>(k, nrhs - j0, r, ldr, b + j0 * ldb, ldb);
}

// ---- Instantiations ------------------------------------------------
//
// Tile shapes: (R * W) rows by NR columns of accumulators, sized to the
// ISA's register file (16 xmm, 16 ymm, 32 zmm).

#define FDKS_CHUNKED_ARGS                                                   \
  index_t m, index_t n, index_t k, double alpha, const double *a,           \
      index_t lda, const double *b, index_t ldb, double *c, index_t ldc
#define FDKS_DIRECT_ARGS                                                    \
  index_t m, index_t n, index_t k, double alpha, const double *a,           \
      index_t lda, const double *b, index_t sb, index_t ldb, double *c,     \
      index_t ldc
#define FDKS_RSOLVE_ARGS                                                    \
  index_t k, index_t nrhs, const double *r, index_t ldr, double *b,         \
      index_t ldb

void chunked_baseline(FDKS_CHUNKED_ARGS) {
  chunked_body<2, 2, 4>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}
void direct_baseline(FDKS_DIRECT_ARGS) {
  direct_body<2, 2, 4>(m, n, k, alpha, a, lda, b, sb, ldb, c, ldc);
}
void qr_baseline(QrJob& job) { qr_body<2, 8>(job); }
void r_solve_baseline(FDKS_RSOLVE_ARGS) {
  r_solve_body<2, 4>(k, nrhs, r, ldr, b, ldb);
}
constexpr KernelSet kBaseline{chunked_baseline, direct_baseline, qr_baseline,
                              r_solve_baseline};

#ifdef __x86_64__
__attribute__((target("avx2"))) void chunked_avx2(FDKS_CHUNKED_ARGS) {
  chunked_body<4, 2, 6>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}
__attribute__((target("avx2"))) void direct_avx2(FDKS_DIRECT_ARGS) {
  direct_body<4, 2, 4>(m, n, k, alpha, a, lda, b, sb, ldb, c, ldc);
}
__attribute__((target("avx512f"))) void chunked_avx512(FDKS_CHUNKED_ARGS) {
  chunked_body<8, 2, 8>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}
__attribute__((target("avx512f"))) void direct_avx512(FDKS_DIRECT_ARGS) {
  direct_body<8, 2, 8>(m, n, k, alpha, a, lda, b, sb, ldb, c, ldc);
}
__attribute__((target("avx2"))) void qr_avx2(QrJob& job) {
  qr_body<4, 8>(job);
}
__attribute__((target("avx2"))) void r_solve_avx2(FDKS_RSOLVE_ARGS) {
  r_solve_body<4, 4>(k, nrhs, r, ldr, b, ldb);
}
__attribute__((target("avx512f"))) void qr_avx512(QrJob& job) {
  qr_body<8, 8>(job);
}
__attribute__((target("avx512f"))) void r_solve_avx512(FDKS_RSOLVE_ARGS) {
  r_solve_body<8, 4>(k, nrhs, r, ldr, b, ldb);
}
constexpr KernelSet kAvx2{chunked_avx2, direct_avx2, qr_avx2, r_solve_avx2};
constexpr KernelSet kAvx512{chunked_avx512, direct_avx512, qr_avx512,
                            r_solve_avx512};
#endif

const KernelSet* set_of(Isa isa) {
  switch (isa) {
    case Isa::Baseline: return &kBaseline;
#ifdef __x86_64__
    case Isa::Avx2: return &kAvx2;
    case Isa::Avx512: return &kAvx512;
#else
    default: break;
#endif
  }
  return nullptr;
}

const KernelSet& cpu_set() {
  static const KernelSet* const best = [] {
    for (Isa isa : {Isa::Avx512, Isa::Avx2})
      if (isa_supported(isa)) return set_of(isa);
    return &kBaseline;
  }();
  return *best;
}

thread_local const KernelSet* t_forced = nullptr;

}  // namespace

bool isa_supported(Isa isa) {
#ifdef __x86_64__
  __builtin_cpu_init();
  switch (isa) {
    case Isa::Baseline: return true;
    case Isa::Avx2: return __builtin_cpu_supports("avx2");
    case Isa::Avx512: return __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return isa == Isa::Baseline;
#endif
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Baseline: return "baseline";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512f";
  }
  return "?";
}

const KernelSet& kernels() { return t_forced ? *t_forced : cpu_set(); }

ScopedIsa::ScopedIsa(Isa isa) : prev_(t_forced) {
  if (!isa_supported(isa))
    throw std::invalid_argument(std::string("ScopedIsa: CPU lacks ") +
                                isa_name(isa));
  t_forced = set_of(isa);
}

ScopedIsa::~ScopedIsa() { t_forced = prev_; }

}  // namespace fdks::la::detail
