// Hybrid direct/iterative solver (§II-C, Algorithms II.6–II.8).
//
// With level restriction, only the subtrees rooted at the
// skeletonization frontier A are factorized directly (that is the
// block-diagonal D). All couplings above the frontier are collapsed
// into the global factors
//
//   W = blockdiag_{a in A}( P^_a )            (N x S,  S = sum_a s_a)
//   V : row block a = K(a~, X \ a)            (S x N)
//
// and (lambda I + K~)^-1 u = D^-1 u - W (I + V W)^-1 V D^-1 u, where the
// reduced S x S system is solved matrix-free with GMRES. V is applied
// with the fused GSKS summation, so the hybrid solver stores no
// above-frontier kernel blocks at all — the storage win of Table V.
#pragma once

#include "core/factor_tree.hpp"
#include "iterative/gmres.hpp"

#include <cstdint>
#include <vector>

namespace fdks::core {

struct HybridOptions {
  /// Frontier-subtree factorization options. direct.verify drives the
  /// certification ladder of solve_with_status (core/verify.hpp).
  SolverOptions direct;
  iter::GmresOptions gmres;    ///< Reduced-system Krylov options.
};

/// Status code of one reduced-system GMRES run: Ok when it converged,
/// otherwise why it stopped (Breakdown, Stagnated, NotConverged).
SolveCode gmres_code(const iter::GmresResult& r);

/// Prefix offsets of each frontier node's skeleton block in the reduced
/// system: |A| + 1 entries, the last one S.
std::vector<index_t> frontier_offsets(const HMatrix& h);

/// Z = V Q over the contiguous tree-order points `pts` (Algorithm II.8):
/// row block a of Z is K(a~, pts) Q, minus K(a~, X_a) Q_a for every
/// frontier node a inside `pts`. Q holds the rows of `pts`. The
/// sequential solver passes all N points; a rank of the distributed
/// solver passes its own range and allreduces Z.
void frontier_matvec_v(const HMatrix& h, std::span<const index_t> offsets,
                       std::span<const index_t> pts, la::ConstMatrixView q,
                       la::MatrixView z);

/// Q = beta Q + alpha W Z on the tree-order rows [begin, begin + Q.rows())
/// (Algorithm II.7): row block a of Q takes P^_a Z_a for every frontier
/// node a inside the range.
void frontier_matvec_w(const FactorTree& ft, std::span<const index_t> offsets,
                       index_t begin, la::ConstMatrixView z, la::MatrixView q,
                       double alpha = 1.0, double beta = 0.0);

class HybridSolver {
 public:
  /// Factorizes the frontier subtrees on construction.
  HybridSolver(const HMatrix& h, HybridOptions opts);

  /// Solve (lambda I + K~) X = U for the B columns of U (original point
  /// order). The linear stages of Algorithm II.6 are batched — D^-1 as
  /// in-place block subtree solves, V via fused block kernel summation,
  /// W as batched P^ applications — while the reduced-system GMRES
  /// (step 3) runs per column (a Krylov space is per-RHS); last_gmres()
  /// reflects the final column. U and X must both be N x B
  /// (std::invalid_argument otherwise, before any data is touched); X
  /// may alias U. `cancel` (optional) is checked between frontier
  /// subtrees and at every reduced-system GMRES iteration; an expired
  /// token aborts with core::CancelledError.
  void solve(la::ConstMatrixView u, la::MatrixView x,
             const CancelToken* cancel = nullptr) const;

  // B = 1 and owning views of the block solve.
  std::vector<double> solve(std::span<const double> u,
                            const CancelToken* cancel = nullptr) const;
  Matrix solve(const Matrix& u, const CancelToken* cancel = nullptr) const;

  /// Guarded solve: solves, then certifies through the shared ladder with
  /// opts.direct.verify (sampled by this solver's own solve counter) and
  /// reports with finish_solve's status priority (core/verify.hpp). A
  /// non-finite right-hand side is reported without solving. Never
  /// throws on numerical trouble; a u or x of the wrong length throws
  /// std::invalid_argument before x is written.
  SolveStatus solve_with_status(std::span<const double> u,
                                std::span<double> x) const;

  /// Structured factorization outcome for the frontier subtrees.
  FactorStatus factor_status() const { return ft_.factor_status(); }

  /// Size S of the reduced system (I + VW).
  index_t reduced_size() const { return reduced_size_; }

  const iter::GmresResult& last_gmres() const { return last_; }
  const StabilityReport& stability() const { return ft_.stability(); }
  double factor_seconds() const { return factor_seconds_; }
  size_t factor_bytes() const;

  // -- Exposed for tests ------------------------------------------------

  /// z = V q (Algorithm II.8): q length N (permuted order), z length S.
  void matvec_v(std::span<const double> q, std::span<double> z) const;

  /// q = W z (Algorithm II.7): z length S, q length N (permuted order).
  void matvec_w(std::span<const double> z, std::span<double> q) const;

  /// y = (I + V W) z, the reduced operator handed to GMRES.
  void reduced_apply(std::span<const double> z, std::span<double> y) const;

 private:
  const HMatrix* h_;
  HybridOptions opts_;
  FactorTree ft_;
  std::vector<index_t> offsets_;   ///< frontier_offsets(h).
  std::vector<index_t> all_ids_;   ///< 0..N-1, the V column index set.
  index_t reduced_size_ = 0;
  double factor_seconds_ = 0.0;
  mutable iter::GmresResult last_;
  // Summary of the last solve's reduced GMRES runs, for finish_solve.
  mutable SolveCode reduced_code_ = SolveCode::Ok;
  mutable int gmres_iterations_ = 0;
  mutable std::uint64_t verify_seq_ = 0;  ///< solve_with_status counter.
};

}  // namespace fdks::core
