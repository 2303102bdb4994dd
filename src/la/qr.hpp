// Householder QR, with and without column pivoting (GEQRF / GEQP3
// substitutes).
//
// The column-pivoted variant is the rank-revealing engine behind the
// interpolative decomposition (skeletonization): pivots order the columns
// by residual norm, and the diagonal of R estimates the singular-value
// decay used for the adaptive-rank criterion sigma_{s+1}/sigma_1 < tau.
//
// Both run the QR family of la/kernels.hpp. It packs the columns into
// panels of W columns (m rows, row-major inside), so each vector op
// covers one row of W columns, and it makes one sweep down the rows per
// step: step k's update of the trailing columns is applied in the same
// pass that forms step k+1's reflector dot products. Pivots follow the
// classic GEQP3 norm downdate, one column at a time, with no blocking
// or sketching. Every column keeps its own chain of adds in ascending
// rows, without FMA, so the factors are bitwise those of the textbook
// column-at-a-time loops (tests/reference_kernels.hpp) on every ISA.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace fdks::la {

/// Compact Householder QR factors: A*Pi = Q*R with Q stored as
/// reflectors in the lower trapezoid of qr and tau coefficients.
struct QrFactor {
  Matrix qr;                  ///< Reflectors below diag, R on/above diag.
  std::vector<double> tau;    ///< Householder coefficients.
  std::vector<index_t> jpvt;  ///< Column permutation: column k of A*Pi is
                              ///< original column jpvt[k]. Identity when
                              ///< pivoting is off.
  index_t rank = 0;           ///< Columns processed (min(m,n) or the
                              ///< truncation point for pivoted QR).
  double achieved_tol = 0.0;  ///< Pivoted QR: the ratio to |R(0,0)| at
                              ///< which it stopped. At a tol stop at
                              ///< step s, |R(s,s)|/|R(0,0)|; at the
                              ///< max_rank cap, the next pivot's
                              ///< downdated column norm over |R(0,0)|;
                              ///< 0 when every column was kept (or A
                              ///< is zero). 0 for unpivoted QR.

  index_t m() const { return qr.rows(); }
  index_t n() const { return qr.cols(); }

  /// |R(k,k)| values, the singular-value estimates of the paper's
  /// adaptive-rank test.
  std::vector<double> rdiag() const;
};

/// Unpivoted Householder QR of (a copy of) A.
QrFactor qr_factor(const Matrix& a);

/// Column-pivoted Householder QR with optional early termination:
/// stops after step k when |R(k,k)| <= tol * |R(0,0)| or k == max_rank.
/// tol <= 0 and max_rank <= 0 disable the respective criteria.
QrFactor qr_factor_pivoted(const Matrix& a, double tol = 0.0,
                           index_t max_rank = 0);

/// Apply Q^T to a block: b <- Q^T b (b has m rows).
void qr_apply_qt(const QrFactor& f, Matrix& b);

/// Apply Q to a block: b <- Q b.
void qr_apply_q(const QrFactor& f, Matrix& b);

/// Explicit m-by-k thin Q (k = f.rank).
Matrix qr_form_q(const QrFactor& f);

/// Upper-triangular k-by-n R (k = f.rank) in the pivoted column order.
Matrix qr_form_r(const QrFactor& f);

/// Solve R(0:k,0:k) X = B in place on B (back substitution on the leading
/// triangle of the factor).
void qr_solve_r(const QrFactor& f, Matrix& b);

/// Least-squares solve min ||A x - b||_2 via unpivoted QR (m >= n).
std::vector<double> qr_least_squares(const Matrix& a,
                                     std::span<const double> b);

}  // namespace fdks::la
