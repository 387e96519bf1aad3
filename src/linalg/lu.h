// LU decomposition with partial pivoting. Used to solve the linear systems
// arising in steady-state thermal analysis and in the Pade approximant of
// the matrix exponential.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace mobitherm::linalg {

/// PA = LU factorization of a square matrix. Throws NumericError if the
/// matrix is singular to working precision.
class Lu {
 public:
  explicit Lu(const Matrix& a);

  /// Solve A x = b.
  Vector solve(const Vector& b) const;

  /// Solve A X = B column-by-column.
  Matrix solve(const Matrix& b) const;

  std::size_t size() const { return lu_.rows(); }

 private:
  Matrix lu_;                     // packed L (unit diagonal) and U
  std::vector<std::size_t> piv_;  // row permutation
};

/// Convenience: invert a square matrix (prefer Lu::solve when possible).
Matrix inverse(const Matrix& a);

}  // namespace mobitherm::linalg
