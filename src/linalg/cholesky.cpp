#include "linalg/cholesky.h"

#include <cmath>

#include "util/error.h"

namespace mobitherm::linalg {

using util::NumericError;

Cholesky::Cholesky(const Matrix& a) : l_(a.rows(), a.cols()) {
  if (!a.square()) {
    throw NumericError("Cholesky: matrix must be square");
  }
  if (!a.symmetric(1e-9 * (1.0 + a.norm_inf_entry()))) {
    throw NumericError("Cholesky: matrix is not symmetric");
  }
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) {
      diag -= l_(j, k) * l_(j, k);
    }
    if (diag <= 0.0) {
      throw NumericError("Cholesky: matrix is not positive definite");
    }
    l_(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        acc -= l_(i, k) * l_(j, k);
      }
      l_(i, j) = acc / l_(j, j);
    }
  }
}

Vector Cholesky::solve(const Vector& b) const {
  Vector x;
  solve_into(b, x);
  return x;
}

// MOBILINT: hot-path
void Cholesky::solve_into(const Vector& b, Vector& x) const {
  const std::size_t n = l_.rows();
  if (b.size() != n) {
    throw NumericError("Cholesky::solve: dimension mismatch");
  }
  x.resize(n);  // no-op once x is warm; MOBILINT: alloc-ok
  // L y = b, with y written into x. Position i is read from b before it is
  // overwritten, so b and x may alias.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) {
      acc -= l_(i, j) * x[j];
    }
    x[i] = acc / l_(i, i);
  }
  // L^T x = y, in place: x[ii] depends only on y[ii] and final x[j > ii].
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      acc -= l_(j, ii) * x[j];
    }
    x[ii] = acc / l_(ii, ii);
  }
}

}  // namespace mobitherm::linalg
