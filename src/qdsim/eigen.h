/**
 * @file eigen.h
 * Closed-form eigendecomposition and fractional powers for small unitaries.
 *
 * Gate synthesis in ternary logic needs cube roots of unitaries (the ternary
 * analogue of the controlled-sqrt(X) trick uses W = U^{1/3}; see
 * constructions/ternary_decomp.h). Gates here are at most 3x3 (single-qudit
 * actions for d <= 3) or small composites, so we use characteristic
 * polynomials (quadratic/cubic) with Newton polishing instead of a general
 * iterative eigensolver.
 */
#ifndef QDSIM_EIGEN_H
#define QDSIM_EIGEN_H

#include <vector>

#include "qdsim/matrix.h"

namespace qd {

/**
 * Eigendecomposition U = V diag(values) V^dagger of a normal matrix.
 * Columns of `vectors` are orthonormal eigenvectors.
 */
struct Eigensystem {
    std::vector<Complex> values;
    Matrix vectors;
};

/**
 * Eigendecomposition of a normal (e.g. unitary) matrix of dimension <= 4.
 *
 * @param u A normal matrix (U U^dagger == U^dagger U). Unitarity is not
 *          required, but eigenvector orthogonality relies on normality.
 * @throws std::invalid_argument for dimensions > 4 or non-square input.
 */
Eigensystem eigendecompose(const Matrix& u);

/**
 * Fractional power U^t of a unitary via eigendecomposition, using the
 * principal branch of the logarithm for each eigenvalue. Satisfies
 * (U^{1/k})^k == U exactly up to numerical error for integer k >= 1.
 * The result is unitary to rounding — eigenvalues are put on the unit
 * circle and the eigenbasis is orthonormalised — so roots of roots stay
 * unitary however close to the identity they get.
 */
Matrix unitary_power(const Matrix& u, Real t);

/**
 * Roots of a monic polynomial x^n + c[n-1] x^{n-1} + ... + c[0] with complex
 * coefficients, n <= 3, in closed form with Newton polishing.
 * `coeffs` is ordered from the constant term upward (c[0], c[1], ...).
 */
std::vector<Complex> polynomial_roots(const std::vector<Complex>& coeffs);

/**
 * Orthonormal basis of the null space of `a` (dimension <= 4) computed by
 * Gaussian elimination with partial pivoting at tolerance `tol`.
 * Returned as columns of a matrix with a.cols() rows.
 */
Matrix null_space(const Matrix& a, Real tol = 1e-8);

}  // namespace qd

#endif  // QDSIM_EIGEN_H
