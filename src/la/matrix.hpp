// Dense column-major matrix container and lightweight views.
//
// This is the storage substrate for the whole library. The layout is
// LAPACK-convention column-major: element (i,j) of an m-by-n matrix with
// leading dimension ld lives at data[i + j*ld]. All factorization and
// kernel-summation routines in fdks::la operate on this type or on raw
// (pointer, ld) views of it.
#pragma once

#include <cstddef>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace fdks::la {

using index_t = std::ptrdiff_t;

/// Dense column-major matrix of doubles.
///
/// Invariants: rows() >= 0, cols() >= 0, ld() >= max(1, rows()),
/// data owns rows()*cols() contiguous doubles (ld == rows for owned
/// storage; strided views are expressed with raw pointers instead).
class Matrix {
 public:
  Matrix() = default;

  /// Uninitialized m-by-n matrix (values are zero-initialized; dense
  /// numerical code is too easy to get wrong with garbage init).
  Matrix(index_t m, index_t n);

  /// m-by-n matrix filled with a constant.
  Matrix(index_t m, index_t n, double fill);

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  index_t ld() const noexcept { return rows_; }
  index_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return size() == 0; }

  double& operator()(index_t i, index_t j) noexcept {
    return data_[static_cast<size_t>(i + j * rows_)];
  }
  double operator()(index_t i, index_t j) const noexcept {
    return data_[static_cast<size_t>(i + j * rows_)];
  }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// Pointer to the top of column j.
  double* col(index_t j) noexcept { return data() + j * rows_; }
  const double* col(index_t j) const noexcept { return data() + j * rows_; }

  /// Set every entry to a constant.
  void fill(double v);

  /// Reshape to m-by-n, discarding contents (zero-filled).
  void resize(index_t m, index_t n);

  /// Copy of the [r0, r0+mr) x [c0, c0+nc) submatrix.
  Matrix block(index_t r0, index_t c0, index_t mr, index_t nc) const;

  /// Write a matrix into the [r0, ...) x [c0, ...) submatrix.
  void set_block(index_t r0, index_t c0, const Matrix& src);

  /// Transposed copy.
  Matrix transposed() const;

  /// Copy of selected columns, in the given order.
  Matrix select_cols(std::span<const index_t> idx) const;

  /// Copy of selected rows, in the given order.
  Matrix select_rows(std::span<const index_t> idx) const;

  // Named constructors -------------------------------------------------

  static Matrix identity(index_t n);

  /// Entries i.i.d. uniform on [lo, hi) from the given engine.
  static Matrix random_uniform(index_t m, index_t n, std::mt19937_64& rng,
                               double lo = -1.0, double hi = 1.0);

  /// Entries i.i.d. standard normal from the given engine.
  static Matrix random_gaussian(index_t m, index_t n, std::mt19937_64& rng);

  /// Human-readable dump, for debugging and test failure messages.
  std::string to_string(int precision = 4) const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<double> data_;
};

/// Mutable strided view of a column-major block: element (i,j) lives at
/// data[i + j*ld]. Views are how the solver threads an n_rhs dimension
/// through the telescoping recursion without copying row-ranges in and
/// out of owned Matrix storage — a view of rows [r0, r0+m) of a parent
/// keeps the parent's leading dimension, so every level of the solve
/// operates in place on the same [N x B] block. A view never owns; the
/// viewed storage must outlive it.
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(double* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {}
  /// Whole-matrix view (implicit: a Matrix is usable wherever a view is).
  MatrixView(Matrix& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()), ld_(m.ld()) {}

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  index_t ld() const noexcept { return ld_; }

  double* data() const noexcept { return data_; }
  double* col(index_t j) const noexcept { return data_ + j * ld_; }
  double& operator()(index_t i, index_t j) const noexcept {
    return data_[i + j * ld_];
  }

  /// Sub-view of the [r0, r0+mr) x [c0, c0+nc) block (no copy).
  MatrixView block(index_t r0, index_t c0, index_t mr, index_t nc) const {
    return MatrixView(data_ + r0 + c0 * ld_, mr, nc, ld_);
  }

  /// Column j as a contiguous span (views are column-contiguous).
  std::span<double> col_span(index_t j) const {
    return std::span<double>(col(j), static_cast<size_t>(rows_));
  }

 private:
  double* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Read-only counterpart of MatrixView.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const double* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {}
  ConstMatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()), ld_(m.ld()) {}
  ConstMatrixView(MatrixView v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()), ld_(v.ld()) {}

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  index_t ld() const noexcept { return ld_; }

  const double* data() const noexcept { return data_; }
  const double* col(index_t j) const noexcept { return data_ + j * ld_; }
  double operator()(index_t i, index_t j) const noexcept {
    return data_[i + j * ld_];
  }

  ConstMatrixView block(index_t r0, index_t c0, index_t mr,
                        index_t nc) const {
    return ConstMatrixView(data_ + r0 + c0 * ld_, mr, nc, ld_);
  }

  std::span<const double> col_span(index_t j) const {
    return std::span<const double>(col(j), static_cast<size_t>(rows_));
  }

 private:
  const double* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// A length-n vector as an n x 1 view: the B = 1 case of a block routine.
inline ConstMatrixView column_view(std::span<const double> v) {
  const auto n = static_cast<index_t>(v.size());
  return {v.data(), n, 1, n > 0 ? n : 1};
}
inline MatrixView column_view(std::span<double> v) {
  const auto n = static_cast<index_t>(v.size());
  return {v.data(), n, 1, n > 0 ? n : 1};
}

/// Max |a(i,j) - b(i,j)|; matrices must have identical shape.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// Elementwise a + alpha*b, shapes must match.
Matrix add_scaled(const Matrix& a, double alpha, const Matrix& b);

}  // namespace fdks::la
