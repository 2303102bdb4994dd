// Interpolative decomposition (ID) built on column-pivoted QR.
//
// Given A (m-by-n), the ID selects s columns J ("skeleton") and an
// interpolation matrix P (s-by-n) with A ≈ A(:,J) * P and P(:,J) = I.
// This is exactly the skeletonization primitive of ASKIT (paper eq. (4)):
// K_{S,alpha} ≈ K_{S,alpha~} P_{alpha~,alpha}.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace fdks::la {

struct IdResult {
  std::vector<index_t> skeleton;  ///< Selected column indices into A.
  Matrix p;                       ///< s-by-n interpolation matrix.
  index_t rank = 0;               ///< s = skeleton.size().
  std::vector<double> rdiag;      ///< |R(k,k)| decay, for diagnostics.
  double achieved_tol = 0.0;      ///< Where the ID stopped, as a ratio to
                                  ///< |R(0,0)| (QrFactor::achieved_tol):
                                  ///< at most tol when tol was met, above
                                  ///< it when max_rank capped the rank.
  bool compressed = false;        ///< rank < n (some reduction happened).
};

/// Compute an ID of A with the paper's adaptive-rank criterion:
/// rank s is the smallest k with |R(k,k)|/|R(0,0)| <= tol, capped at
/// max_rank (0 = no cap). tol <= 0 forces the cap (fixed-rank ID).
IdResult interpolative_decomposition(const Matrix& a, double tol,
                                     index_t max_rank = 0);

/// Reconstruction error ||A - A(:,J) P||_F / ||A||_F, for tests.
double id_relative_error(const Matrix& a, const IdResult& id);

}  // namespace fdks::la
