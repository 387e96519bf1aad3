// Cholesky factorization for symmetric positive-definite systems.
//
// Thermal conductance matrices (G + diag(g_amb)) are SPD by construction,
// so steady-state solves use Cholesky; it also doubles as an SPD check in
// tests and model validation.
#pragma once

#include "linalg/matrix.h"

namespace mobitherm::linalg {

/// A = L L^T factorization. Throws NumericError if A is not symmetric
/// positive definite (within a pivot tolerance).
class Cholesky {
 public:
  explicit Cholesky(const Matrix& a);

  /// Solve A x = b.
  Vector solve(const Vector& b) const;

  /// Solve A x = b into caller-owned x without allocating (once x has
  /// capacity n). `x` may alias `b`; the triangular solves run in place.
  /// Bit-identical to solve().
  void solve_into(const Vector& b, Vector& x) const;

  /// Lower-triangular factor.
  const Matrix& factor() const { return l_; }

 private:
  Matrix l_;
};

}  // namespace mobitherm::linalg
