#include "linalg/matrix.h"

#include <cmath>

#include "util/error.h"

namespace mobitherm::linalg {

using util::ConfigError;

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw ConfigError("Matrix initializer rows have unequal lengths");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    m(i, i) = d[i];
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  MOBITHERM_ASSERT(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  MOBITHERM_ASSERT(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) {
    v *= s;
  }
  return *this;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return false;
  }
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) {
      return false;
    }
  }
  return true;
}

double Matrix::norm1() const {
  double best = 0.0;
  for (std::size_t c = 0; c < cols_; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      sum += std::abs((*this)(r, c));
    }
    best = std::max(best, sum);
  }
  return best;
}

double Matrix::norm_inf_entry() const {
  double best = 0.0;
  for (double v : data_) {
    best = std::max(best, std::abs(v));
  }
  return best;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

bool Matrix::symmetric(double tol) const {
  if (!square()) {
    return false;
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) {
        return false;
      }
    }
  }
  return true;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  MOBITHERM_ASSERT(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) {
        continue;
      }
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  MOBITHERM_ASSERT(a.cols() == x.size());
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      acc += a(i, j) * x[j];
    }
    y[i] = acc;
  }
  return y;
}

Vector operator+(Vector a, const Vector& b) {
  MOBITHERM_ASSERT(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] += b[i];
  }
  return a;
}

Vector operator-(Vector a, const Vector& b) {
  MOBITHERM_ASSERT(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] -= b[i];
  }
  return a;
}

Vector operator*(Vector a, double s) {
  for (double& v : a) {
    v *= s;
  }
  return a;
}

Vector operator*(double s, Vector a) { return a * s; }

// Rows run four at a time so their add chains overlap instead of each
// waiting on the previous row's. Every row still accumulates a(i, j) * x[j]
// from 0.0 in ascending j, so y is bit-identical to operator*.
// MOBILINT: hot-path
void gemv(const Matrix& a, const Vector& x, Vector& y) {
  MOBITHERM_ASSERT(a.cols() == x.size());
  MOBITHERM_ASSERT(&x != &y);
  y.resize(a.rows());  // no-op once y is warm; MOBILINT: alloc-ok
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      const double xj = x[j];
      acc0 += a(i, j) * xj;
      acc1 += a(i + 1, j) * xj;
      acc2 += a(i + 2, j) * xj;
      acc3 += a(i + 3, j) * xj;
    }
    y[i] = acc0;
    y[i + 1] = acc1;
    y[i + 2] = acc2;
    y[i + 3] = acc3;
  }
  for (; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      acc += a(i, j) * x[j];
    }
    y[i] = acc;
  }
}

// MOBILINT: hot-path
void axpy(double alpha, const Vector& x, Vector& y) {
  MOBITHERM_ASSERT(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

// MOBILINT: hot-path
void scal(double s, Vector& x) {
  for (double& v : x) {
    v *= s;
  }
}

double norm_inf(const Vector& v) {
  double best = 0.0;
  for (double x : v) {
    best = std::max(best, std::abs(x));
  }
  return best;
}

}  // namespace mobitherm::linalg
