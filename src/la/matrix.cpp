#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace pamo::la {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::add_diagonal(double s) {
  PAMO_CHECK(rows_ == cols_, "add_diagonal requires a square matrix");
  for (std::size_t i = 0; i < rows_; ++i) data_[i * cols_ + i] += s;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  PAMO_ENSURES(t.rows() == cols_ && t.cols() == rows_,
               "transpose swaps dimensions");
  return t;
}

void Matrix::append_rows(std::size_t count, double fill) {
  rows_ += count;
  data_.resize(rows_ * cols_, fill);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  PAMO_CHECK(a.cols() == b.rows(), "matmul dimension mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  // i-k-j loop order: streams through b and c rows contiguously.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      // Exact-zero skip: sparsity shortcut, any nonzero must multiply.
      if (aik == 0.0) continue;  // pamo-analyze: allow(float-eq)
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

Matrix matmul_blocked(const Matrix& a, const Matrix& b, std::size_t block) {
  PAMO_CHECK(a.cols() == b.rows(), "matmul dimension mismatch");
  PAMO_EXPECTS(block > 0, "matmul_blocked requires a positive block size");
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += block) {
    const std::size_t i1 = std::min(a.rows(), i0 + block);
    for (std::size_t j0 = 0; j0 < b.cols(); j0 += block) {
      const std::size_t j1 = std::min(b.cols(), j0 + block);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
          const double aik = a(i, k);
          // Exact-zero skip: sparsity shortcut, any nonzero must multiply.
          if (aik == 0.0) continue;  // pamo-analyze: allow(float-eq)
          for (std::size_t j = j0; j < j1; ++j) {
            c(i, j) += aik * b(k, j);
          }
        }
      }
    }
  }
  return c;
}

Vector matvec(const Matrix& a, const Vector& x) {
  PAMO_CHECK(a.cols() == x.size(), "matvec dimension mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) sum += a(i, j) * x[j];
    y[i] = sum;
  }
  return y;
}

Vector matvec_transposed(const Matrix& a, const Vector& x) {
  PAMO_CHECK(a.rows() == x.size(), "matvec_transposed dimension mismatch");
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    // Exact-zero skip: sparsity shortcut, any nonzero must multiply.
    if (xi == 0.0) continue;  // pamo-analyze: allow(float-eq)
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += a(i, j) * xi;
  }
  return y;
}

double dot(const Vector& a, const Vector& b) {
  PAMO_CHECK(a.size() == b.size(), "dot dimension mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

void axpy(double s, const Vector& x, Vector& y) {
  PAMO_CHECK(x.size() == y.size(), "axpy dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += s * x[i];
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

}  // namespace pamo::la
