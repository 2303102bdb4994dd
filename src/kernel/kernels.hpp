// Kernel functions K(x, y) on R^d.
//
// The paper's experiments use the Gaussian kernel; ASKIT itself has been
// applied to polynomial, Matern, and Laplacian kernels, so all four are
// provided. Every kernel is evaluated from the pair (x·y, |x|^2, |y|^2)
// so the tiled kernel-summation can produce a whole tile from one rank-d
// update (the GSKS trick of §II-D).
#pragma once

#include <algorithm>
#include <cmath>
#include <string>

namespace fdks::kernel {

enum class KernelType { Gaussian, Laplacian, Matern32, Polynomial };

/// Squared distance from the Gram triple, |x|^2 + |y|^2 - 2 x.y, clamped
/// at zero to absorb roundoff.
inline double gram_dist2(double xdoty, double xnorm2, double ynorm2) {
  return std::max(0.0, xnorm2 + ynorm2 - 2.0 * xdoty);
}

/// Value-type kernel descriptor. Cheap to copy; everything downstream
/// takes it by value.
struct Kernel {
  KernelType type = KernelType::Gaussian;
  double bandwidth = 1.0;  ///< h for the radial kernels, scale for poly.
  double shift = 1.0;      ///< c in (x.y/h^2 + c)^p.
  int degree = 2;          ///< p for the polynomial kernel.

  // Each kernel's formula, split before its exp. eval_gram composes
  // them one entry at a time; the tile path (kernel/tile.hpp) applies
  // the same expressions to a whole column and then one vector exp.

  /// Gaussian exponent: -d2 / (2 h^2).
  double gaussian_arg(double d2) const {
    return -0.5 * d2 / (bandwidth * bandwidth);
  }
  /// Laplacian exponent: -sqrt(d2) / h.
  double laplacian_arg(double d2) const {
    return -std::sqrt(d2) / bandwidth;
  }
  /// Matern-3/2 scaled distance r = sqrt(3 d2) / h; K = (1 + r) e^-r.
  double matern32_r(double d2) const {
    return std::sqrt(3.0 * d2) / bandwidth;
  }
  /// Polynomial base x.y / h^2 + c.
  double polynomial_base(double xdoty) const {
    return xdoty / (bandwidth * bandwidth) + shift;
  }
  /// Polynomial kernel (x.y / h^2 + c)^p, which needs no exp.
  double polynomial_gram(double xdoty) const {
    const double base = polynomial_base(xdoty);
    double acc = 1.0;
    for (int k = 0; k < degree; ++k) acc *= base;
    return acc;
  }

  /// Evaluate from the Gram triple, one entry: the scalar reference of
  /// the tile path.
  double eval_gram(double xdoty, double xnorm2, double ynorm2) const {
    switch (type) {
      case KernelType::Gaussian:
        return std::exp(gaussian_arg(gram_dist2(xdoty, xnorm2, ynorm2)));
      case KernelType::Laplacian:
        return std::exp(laplacian_arg(gram_dist2(xdoty, xnorm2, ynorm2)));
      case KernelType::Matern32: {
        const double r = matern32_r(gram_dist2(xdoty, xnorm2, ynorm2));
        return (1.0 + r) * std::exp(-r);
      }
      case KernelType::Polynomial:
        return polynomial_gram(xdoty);
    }
    return 0.0;  // Unreachable.
  }

  /// Direct evaluation on two points of dimension d.
  double eval(const double* x, const double* y, long d) const {
    double xy = 0.0, xx = 0.0, yy = 0.0;
    for (long i = 0; i < d; ++i) {
      xy += x[i] * y[i];
      xx += x[i] * x[i];
      yy += y[i] * y[i];
    }
    return eval_gram(xy, xx, yy);
  }

  std::string name() const;

  // Named constructors for the common cases.
  static Kernel gaussian(double h) {
    return Kernel{KernelType::Gaussian, h, 0.0, 0};
  }
  static Kernel laplacian(double h) {
    return Kernel{KernelType::Laplacian, h, 0.0, 0};
  }
  static Kernel matern32(double h) {
    return Kernel{KernelType::Matern32, h, 0.0, 0};
  }
  static Kernel polynomial(double scale, double c, int p) {
    return Kernel{KernelType::Polynomial, scale, c, p};
  }
};

}  // namespace fdks::kernel
