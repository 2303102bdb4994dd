#include "kernel/summation.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "la/gemm.hpp"

namespace fdks::kernel {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::StoredGemv:
      return "GEMV";
    case Scheme::ReevalGemm:
      return "GEMM";
    case Scheme::Gsks:
      return "GSKS";
  }
  return "?";
}

KernelBlockOp::KernelBlockOp(const KernelMatrix* km,
                             std::vector<index_t> rows,
                             std::vector<index_t> cols, Scheme scheme)
    : km_(km), rows_(std::move(rows)), cols_(std::move(cols)),
      scheme_(scheme) {
  if (scheme_ == Scheme::StoredGemv) stored_ = km_->block(rows_, cols_);
}

KernelBlockOp::KernelBlockOp(const KernelMatrix* km,
                             std::vector<index_t> rows,
                             std::vector<index_t> cols, Scheme scheme,
                             Matrix stored)
    : km_(km), rows_(std::move(rows)), cols_(std::move(cols)),
      scheme_(scheme), stored_(std::move(stored)) {
  if (scheme_ == Scheme::StoredGemv &&
      (stored_.rows() != this->rows() || stored_.cols() != this->cols()))
    stored_ = km_->block(rows_, cols_);
}

void KernelBlockOp::apply(std::span<const double> u, std::span<double> y,
                          double alpha, double beta) const {
  apply_block(la::column_view(u), la::column_view(y), alpha, beta);
}

void KernelBlockOp::apply_block(la::ConstMatrixView u, la::MatrixView y,
                                double alpha, double beta) const {
  if (u.rows() != cols() || y.rows() != rows() || u.cols() != y.cols())
    throw std::invalid_argument("KernelBlockOp::apply_block: size mismatch");
  switch (scheme_) {
    case Scheme::StoredGemv:
      la::gemm(alpha, la::ConstMatrixView(stored_), u, beta, y);
      return;
    case Scheme::ReevalGemm: {
      // Materialize the block ONCE for the whole batch (the per-column
      // apply() path would re-evaluate it B times).
      const Matrix block = km_->block(rows_, cols_);
      la::gemm(alpha, la::ConstMatrixView(block), u, beta, y);
      return;
    }
    case Scheme::Gsks: {
      if (beta != 1.0)
        for (index_t j = 0; j < y.cols(); ++j) {
          double* yc = y.col(j);
          for (index_t i = 0; i < y.rows(); ++i)
            yc[i] = (beta == 0.0) ? 0.0 : beta * yc[i];
        }
      gsks_apply_block(*km_, rows_, cols_, u, y, alpha);
      return;
    }
  }
}

Matrix KernelBlockOp::apply_block(const Matrix& u) const {
  if (u.rows() != cols())
    throw std::invalid_argument("KernelBlockOp::apply_block: size mismatch");
  Matrix y(rows(), u.cols());
  apply_block(la::ConstMatrixView(u), la::MatrixView(y), 1.0, 0.0);
  return y;
}

Matrix KernelBlockOp::to_dense() const { return km_->block(rows_, cols_); }

size_t KernelBlockOp::stored_bytes() const {
  return static_cast<size_t>(stored_.size()) * sizeof(double);
}

}  // namespace fdks::kernel
