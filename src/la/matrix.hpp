// Dense row-major matrix and vector operations sized for exact GP
// inference (hundreds to low thousands of rows). No BLAS dependency; the
// kernels are cache-friendly triple loops, adequate at this scale.
#pragma once

#include <cstddef>
#include <vector>

namespace pamo::la {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  static Matrix identity(std::size_t n);

  /// In-place: this += s * I (requires square).
  void add_diagonal(double s);

  [[nodiscard]] Matrix transposed() const;

  /// Grow by `count` rows of `fill` at the bottom. Storage is row-major,
  /// so every existing entry keeps its value and position.
  void append_rows(std::size_t count, double fill = 0.0);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// c = a * b.
Matrix matmul(const Matrix& a, const Matrix& b);

/// c = a * b with i/j panel tiling so a block² panel of c stays hot while
/// a stripe of b streams through. The k loop stays ascending and untiled,
/// so every output element accumulates in exactly the same order as
/// matmul() — the two are bit-for-bit interchangeable.
Matrix matmul_blocked(const Matrix& a, const Matrix& b,
                      std::size_t block = 64);

/// y = a * x.
Vector matvec(const Matrix& a, const Vector& x);

/// y = aᵀ * x.
Vector matvec_transposed(const Matrix& a, const Vector& x);

/// Dot product.
double dot(const Vector& a, const Vector& b);

/// y += s * x.
void axpy(double s, const Vector& x, Vector& y);

/// Euclidean norm.
double norm2(const Vector& v);

}  // namespace pamo::la
