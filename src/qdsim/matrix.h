/**
 * @file matrix.h
 * Small dense complex matrix used for gate unitaries and Kraus operators.
 *
 * Gate matrices in this library are tiny (d^k x d^k for k-local gates with
 * d in {2,3,...}), so a simple row-major heap-backed matrix is sufficient.
 * State vectors are NOT represented with this class; see state_vector.h.
 */
#ifndef QDSIM_MATRIX_H
#define QDSIM_MATRIX_H

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "qdsim/types.h"

namespace qd {

/**
 * Dense row-major complex matrix with value semantics.
 *
 * Provides just enough linear algebra for quantum-gate manipulation:
 * multiplication, adjoint, Kronecker products, unitarity checks and
 * comparisons up to global phase.
 */
class Matrix {
  public:
    /** Creates an empty 0x0 matrix. */
    Matrix() = default;

    /** Creates a zero-initialised rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /**
     * Creates a matrix from nested initializer lists (row major).
     * All rows must have equal length.
     */
    Matrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** Identity matrix of dimension n. */
    static Matrix identity(std::size_t n);

    /** Zero matrix of dimension rows x cols. */
    static Matrix zero(std::size_t rows, std::size_t cols);

    /** Diagonal matrix from the given entries. */
    static Matrix diagonal(const std::vector<Complex>& entries);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    Complex& operator()(std::size_t r, std::size_t c) {
        return data_[r * cols_ + c];
    }
    const Complex& operator()(std::size_t r, std::size_t c) const {
        return data_[r * cols_ + c];
    }

    /** Raw row-major storage (size rows()*cols()). */
    const std::vector<Complex>& data() const { return data_; }

    /** Mutable raw storage (the density engine runs the batched kernels
     *  over rho in place through this). */
    std::vector<Complex>& data() { return data_; }

    Matrix operator*(const Matrix& rhs) const;
    Matrix operator+(const Matrix& rhs) const;
    Matrix operator-(const Matrix& rhs) const;
    Matrix operator*(Complex scalar) const;

    /** Conjugate transpose. */
    Matrix dagger() const;

    /** Transpose without conjugation. */
    Matrix transpose() const;

    /** Kronecker product this (x) rhs. */
    Matrix kron(const Matrix& rhs) const;

    /** Trace (must be square). */
    Complex trace() const;

    /** Frobenius norm of (this - rhs). */
    Real distance(const Matrix& rhs) const;

    /** True if square and U U^dagger == I within tol. */
    bool is_unitary(Real tol = kTol) const;

    /** True if entrywise equal to rhs within tol. */
    bool approx_equal(const Matrix& rhs, Real tol = kTol) const;

    /**
     * True if equal to rhs up to a single global phase factor within tol.
     * Useful for comparing circuit unitaries where global phase is
     * physically meaningless.
     */
    bool approx_equal_up_to_phase(const Matrix& rhs, Real tol = kTol) const;

    /** True if all off-diagonal entries are below tol. */
    bool is_diagonal(Real tol = kTol) const;

    /** Multi-line human-readable rendering (for debugging and logs). */
    std::string to_string(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Complex> data_;
};

}  // namespace qd

#endif  // QDSIM_MATRIX_H
