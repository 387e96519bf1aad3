// Unit and property tests for the linalg module: matrix arithmetic, LU,
// Cholesky, Jacobi eigendecomposition, matrix exponential.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/expm.h"
#include "linalg/jacobi.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "util/error.h"
#include "util/rng.h"

namespace mobitherm::linalg {
namespace {

using util::NumericError;

Matrix random_matrix(std::size_t n, util::Xorshift64Star& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = rng.uniform(-1.0, 1.0);
    }
  }
  return m;
}

Matrix random_spd(std::size_t n, util::Xorshift64Star& rng) {
  // A^T A + n I is symmetric positive definite.
  const Matrix a = random_matrix(n, rng);
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) {
    spd(i, i) += static_cast<double>(n);
  }
  return spd;
}

// --- matrix -----------------------------------------------------------------

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, InitializerListRejectsRagged) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), util::ConfigError);
}

TEST(Matrix, IdentityAndDiagonal) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  const Matrix d = Matrix::diagonal({2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, ArithmeticAndNorms) {
  Matrix a{{1.0, -2.0}, {3.0, 4.0}};
  Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 1), -1.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(1, 1), 3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(a.norm1(), 6.0);         // max column sum |{-2,4}| = 6
  EXPECT_DOUBLE_EQ(a.norm_inf_entry(), 4.0);
}

TEST(Matrix, MultiplyMatchesHandComputation) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatVecAndVectorOps) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = a * Vector{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Vector s = Vector{1.0, 2.0} + Vector{3.0, 4.0};
  EXPECT_DOUBLE_EQ(s[1], 6.0);
  EXPECT_DOUBLE_EQ(norm_inf({-7.0, 2.0}), 7.0);
}

TEST(Matrix, TransposeAndSymmetry) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix t = a.transposed();
  EXPECT_DOUBLE_EQ(t(0, 1), 3.0);
  EXPECT_FALSE(a.symmetric());
  Matrix s{{1.0, 2.0}, {2.0, 5.0}};
  EXPECT_TRUE(s.symmetric());
}

// --- LU -----------------------------------------------------------------------

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = Lu(a).solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, ThrowsOnSingular) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(Lu lu(a), NumericError);
}

TEST(Lu, ThrowsOnNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(Lu lu(a), NumericError);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  util::Xorshift64Star rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix a = random_spd(4, rng);
    const Matrix inv = inverse(a);
    EXPECT_TRUE((a * inv).approx_equal(Matrix::identity(4), 1e-9));
  }
}

class LuSolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuSolveProperty, ResidualIsTiny) {
  util::Xorshift64Star rng(1000 + GetParam());
  const std::size_t n = 2 + GetParam() % 7;
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-5.0, 5.0);
  }
  const Vector x = Lu(a).solve(b);
  const Vector r = a * x - b;
  EXPECT_LT(norm_inf(r), 1e-9 * (1.0 + norm_inf(b)));
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, LuSolveProperty,
                         ::testing::Range(0, 20));

// --- Cholesky -------------------------------------------------------------------

TEST(Cholesky, FactorReconstructs) {
  util::Xorshift64Star rng(77);
  const Matrix a = random_spd(5, rng);
  const Cholesky chol(a);
  const Matrix l = chol.factor();
  EXPECT_TRUE((l * l.transposed()).approx_equal(a, 1e-9));
}

TEST(Cholesky, SolveMatchesLu) {
  util::Xorshift64Star rng(78);
  const Matrix a = random_spd(4, rng);
  const Vector b = {1.0, -2.0, 3.0, 0.5};
  const Vector x1 = Cholesky(a).solve(b);
  const Vector x2 = Lu(a).solve(b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-9);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3 and -1
  EXPECT_THROW(Cholesky chol(a), NumericError);
}

TEST(Cholesky, RejectsAsymmetric) {
  Matrix a{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(Cholesky chol(a), NumericError);
}

// --- Jacobi ----------------------------------------------------------------------

TEST(Jacobi, DiagonalMatrixEigenvalues) {
  const Matrix d = Matrix::diagonal({3.0, 1.0, 2.0});
  const EigenDecomposition e = jacobi_eigen(d);
  ASSERT_EQ(e.eigenvalues.size(), 3u);
  EXPECT_NEAR(e.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[2], 3.0, 1e-12);
}

TEST(Jacobi, KnownTwoByTwo) {
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const EigenDecomposition e = jacobi_eigen(a);
  EXPECT_NEAR(e.eigenvalues[0], 1.0, 1e-10);
  EXPECT_NEAR(e.eigenvalues[1], 3.0, 1e-10);
}

TEST(Jacobi, RejectsAsymmetric) {
  Matrix a{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(jacobi_eigen(a), NumericError);
}

class JacobiProperty : public ::testing::TestWithParam<int> {};

TEST_P(JacobiProperty, ReconstructionAndOrthogonality) {
  util::Xorshift64Star rng(2000 + GetParam());
  const std::size_t n = 2 + GetParam() % 6;
  Matrix a = random_matrix(n, rng);
  a = 0.5 * (a + a.transposed());  // symmetrize
  const EigenDecomposition e = jacobi_eigen(a);

  // V diag(w) V^T == A.
  const Matrix reconstructed =
      e.eigenvectors * Matrix::diagonal(e.eigenvalues) *
      e.eigenvectors.transposed();
  EXPECT_TRUE(reconstructed.approx_equal(a, 1e-8));

  // V^T V == I.
  EXPECT_TRUE((e.eigenvectors.transposed() * e.eigenvectors)
                  .approx_equal(Matrix::identity(n), 1e-9));

  // Ascending order.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_LE(e.eigenvalues[i - 1], e.eigenvalues[i] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSymmetric, JacobiProperty,
                         ::testing::Range(0, 20));

// --- expm ------------------------------------------------------------------------

TEST(Expm, ZeroMatrixGivesIdentity) {
  const Matrix e = expm(Matrix(3, 3));
  EXPECT_TRUE(e.approx_equal(Matrix::identity(3), 1e-12));
}

TEST(Expm, DiagonalMatchesScalarExp) {
  const Matrix e = expm(Matrix::diagonal({1.0, -2.0, 0.5}));
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-10);
  EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-10);
  EXPECT_NEAR(e(2, 2), std::exp(0.5), 1e-10);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-12);
}

TEST(Expm, NilpotentClosedForm) {
  // exp([[0,1],[0,0]]) = [[1,1],[0,1]].
  Matrix n{{0.0, 1.0}, {0.0, 0.0}};
  const Matrix e = expm(n);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(e(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(e(1, 1), 1.0, 1e-12);
}

TEST(Expm, RotationMatrix) {
  // exp([[0,-t],[t,0]]) = [[cos t, -sin t],[sin t, cos t]].
  const double t = 0.7;
  Matrix a{{0.0, -t}, {t, 0.0}};
  const Matrix e = expm(a);
  EXPECT_NEAR(e(0, 0), std::cos(t), 1e-10);
  EXPECT_NEAR(e(0, 1), -std::sin(t), 1e-10);
  EXPECT_NEAR(e(1, 0), std::sin(t), 1e-10);
}

TEST(Expm, LargeNormUsesScalingAndSquaring) {
  const Matrix e = expm(Matrix::diagonal({-50.0, 3.0}));
  EXPECT_NEAR(e(0, 0), std::exp(-50.0), 1e-25);
  EXPECT_NEAR(e(1, 1), std::exp(3.0), 1e-6);
}

class ExpmProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExpmProperty, MatchesEigenExpForSymmetric) {
  util::Xorshift64Star rng(3000 + GetParam());
  const std::size_t n = 2 + GetParam() % 4;
  Matrix a = random_matrix(n, rng);
  a = 0.5 * (a + a.transposed());
  const Matrix e = expm(a);

  const EigenDecomposition dec = jacobi_eigen(a);
  Vector expw(n);
  for (std::size_t i = 0; i < n; ++i) {
    expw[i] = std::exp(dec.eigenvalues[i]);
  }
  const Matrix expected = dec.eigenvectors * Matrix::diagonal(expw) *
                          dec.eigenvectors.transposed();
  EXPECT_TRUE(e.approx_equal(expected, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(RandomSymmetric, ExpmProperty,
                         ::testing::Range(0, 15));

TEST(Expm, SemigroupProperty) {
  util::Xorshift64Star rng(99);
  Matrix a = random_matrix(3, rng);
  a = 0.5 * (a + a.transposed());
  const Matrix whole = expm(a);
  const Matrix half = expm(a * 0.5);
  EXPECT_TRUE((half * half).approx_equal(whole, 1e-9));
}

}  // namespace
}  // namespace mobitherm::linalg
