#include "linalg/lu.h"

#include <cmath>

#include "util/error.h"

namespace mobitherm::linalg {

using util::NumericError;

Lu::Lu(const Matrix& a) : lu_(a), piv_(a.rows()) {
  if (!a.square()) {
    throw NumericError("Lu: matrix must be square");
  }
  const std::size_t n = lu_.rows();
  for (std::size_t i = 0; i < n; ++i) {
    piv_[i] = i;
  }
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest entry in column k at/below row k.
    std::size_t p = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best < 1e-300) {
      throw NumericError("Lu: matrix is singular");
    }
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu_(p, j), lu_(k, j));
      }
      std::swap(piv_[p], piv_[k]);
    }
    const double pivot = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = lu_(i, k) / pivot;
      lu_(i, k) = m;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu_(i, j) -= m * lu_(k, j);
      }
    }
  }
}

Vector Lu::solve(const Vector& b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) {
    throw NumericError("Lu::solve: dimension mismatch");
  }
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = b[piv_[i]];
  }
  // Forward substitution with unit-diagonal L.
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) {
      acc -= lu_(i, j) * x[j];
    }
    x[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      acc -= lu_(ii, j) * x[j];
    }
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

Matrix Lu::solve(const Matrix& b) const {
  const std::size_t n = lu_.rows();
  if (b.rows() != n) {
    throw NumericError("Lu::solve: dimension mismatch");
  }
  Matrix x(n, b.cols());
  Vector col(n);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      col[r] = b(r, c);
    }
    const Vector sol = solve(col);
    for (std::size_t r = 0; r < n; ++r) {
      x(r, c) = sol[r];
    }
  }
  return x;
}

Matrix inverse(const Matrix& a) {
  return Lu(a).solve(Matrix::identity(a.rows()));
}

}  // namespace mobitherm::linalg
