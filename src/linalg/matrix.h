// Dense row-major matrix and vector used by the thermal network solver.
//
// The thermal models in mobitherm are small (a handful of nodes), so this
// module favours clarity and numerical robustness over blocking/SIMD.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "util/error.h"

namespace mobitherm::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Build from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  static Matrix diagonal(const Vector& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  // Element accessors are defined inline: gemv and the thermal steppers
  // touch them per element, so an out-of-line call (and its opaque
  // may-throw assert) would dominate those loops.
  double& operator()(std::size_t r, std::size_t c) {
    MOBITHERM_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    MOBITHERM_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  /// True if dimensions match and all entries differ by at most `tol`.
  bool approx_equal(const Matrix& other, double tol) const;

  /// Max absolute column sum (induced 1-norm).
  double norm1() const;

  /// Max absolute entry.
  double norm_inf_entry() const;

  Matrix transposed() const;

  bool square() const { return rows_ == cols_; }

  /// True if symmetric within `tol` (absolute).
  bool symmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);
Matrix operator*(const Matrix& a, const Matrix& b);

/// Matrix-vector product.
Vector operator*(const Matrix& a, const Vector& x);

Vector operator+(Vector a, const Vector& b);
Vector operator-(Vector a, const Vector& b);
Vector operator*(Vector a, double s);
Vector operator*(double s, Vector a);

double norm_inf(const Vector& v);

// In-place kernels for allocation-free hot loops. They write into
// caller-owned scratch and produce bit-identical results to the
// value-semantics operators above (same accumulation order), so callers can
// swap between the two without perturbing trajectories.

/// y = A x. Resizes y on first use; y must not alias x.
void gemv(const Matrix& a, const Vector& x, Vector& y);

/// y += alpha * x.
void axpy(double alpha, const Vector& x, Vector& y);

/// x *= s.
void scal(double s, Vector& x);

}  // namespace mobitherm::linalg
