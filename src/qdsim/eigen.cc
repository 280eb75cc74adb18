#include "qdsim/eigen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qd {

namespace {

/** Evaluates the monic polynomial and its derivative at x. */
void
eval_monic(const std::vector<Complex>& coeffs, Complex x, Complex* value,
           Complex* deriv)
{
    const std::size_t n = coeffs.size();
    Complex v(1, 0);   // leading term accumulates
    Complex d(0, 0);
    for (std::size_t i = 0; i < n; ++i) {
        d = d * x + v * Complex(static_cast<Real>(n - i), 0);
        // Horner for value: v = v*x + c[n-1-i]
        v = v * x + coeffs[n - 1 - i];
    }
    *value = v;
    *deriv = d;
}

/** A few Newton iterations to polish a root estimate. */
Complex
polish_root(const std::vector<Complex>& coeffs, Complex x)
{
    for (int iter = 0; iter < 40; ++iter) {
        Complex v, d;
        eval_monic(coeffs, x, &v, &d);
        if (std::abs(v) < 1e-15) {
            break;
        }
        if (std::abs(d) < 1e-300) {
            break;
        }
        const Complex step = v / d;
        x -= step;
        if (std::abs(step) < 1e-15) {
            break;
        }
    }
    return x;
}

Complex
complex_sqrt(Complex z)
{
    return std::sqrt(z);
}

/** Modified Gram-Schmidt over the columns of `m`, in column order; a
 *  column whose remaining norm is <= tol is left unnormalised. */
void
orthonormalize_columns(Matrix& m, Real tol)
{
    const std::size_t rows = m.rows();
    for (std::size_t k = 0; k < m.cols(); ++k) {
        for (std::size_t j = 0; j < k; ++j) {
            Complex dot(0, 0);
            for (std::size_t i = 0; i < rows; ++i) {
                dot += std::conj(m(i, j)) * m(i, k);
            }
            for (std::size_t i = 0; i < rows; ++i) {
                m(i, k) -= dot * m(i, j);
            }
        }
        Real nrm = 0;
        for (std::size_t i = 0; i < rows; ++i) {
            nrm += std::norm(m(i, k));
        }
        nrm = std::sqrt(nrm);
        if (nrm > tol) {
            for (std::size_t i = 0; i < rows; ++i) {
                m(i, k) /= nrm;
            }
        }
    }
}

}  // namespace

std::vector<Complex>
polynomial_roots(const std::vector<Complex>& coeffs)
{
    const std::size_t n = coeffs.size();
    if (n == 0) {
        return {};
    }
    if (n == 1) {
        return {-coeffs[0]};
    }
    if (n == 2) {
        // x^2 + bx + c
        const Complex b = coeffs[1], c = coeffs[0];
        const Complex disc = complex_sqrt(b * b - Complex(4, 0) * c);
        // Numerically stable pairing: pick the sign that avoids cancellation.
        Complex q;
        if (std::abs(b + disc) > std::abs(b - disc)) {
            q = -(b + disc) * Complex(0.5, 0);
        } else {
            q = -(b - disc) * Complex(0.5, 0);
        }
        Complex r0 = q;
        Complex r1 = (std::abs(q) > 1e-300) ? c / q : -b - q;
        return {polish_root(coeffs, r0), polish_root(coeffs, r1)};
    }
    if (n == 3) {
        // x^3 + a x^2 + b x + c  (Cardano, depressed cubic)
        const Complex a = coeffs[2], b = coeffs[1], c = coeffs[0];
        const Complex third(1.0 / 3.0, 0);
        const Complex p = b - a * a * third;
        const Complex q =
            Complex(2.0 / 27.0, 0) * a * a * a - a * b * third + c;
        // t^3 + p t + q = 0 with x = t - a/3.
        const Complex disc =
            q * q * Complex(0.25, 0) + p * p * p * Complex(1.0 / 27.0, 0);
        const Complex sq = complex_sqrt(disc);
        Complex u3 = -q * Complex(0.5, 0) + sq;
        if (std::abs(u3) < 1e-30) {
            u3 = -q * Complex(0.5, 0) - sq;
        }
        Complex u = std::pow(u3, 1.0 / 3.0);
        std::vector<Complex> roots;
        const Complex omega(-0.5, std::sqrt(3.0) / 2.0);
        for (int k = 0; k < 3; ++k) {
            Complex uk = u;
            for (int j = 0; j < k; ++j) {
                uk *= omega;
            }
            Complex t;
            if (std::abs(uk) < 1e-30) {
                t = Complex(0, 0);
            } else {
                t = uk - p * third / uk;
            }
            roots.push_back(polish_root(coeffs, t - a * third));
        }
        return roots;
    }
    throw std::invalid_argument("polynomial_roots: degree > 3 unsupported");
}

Matrix
null_space(const Matrix& a, Real tol)
{
    const std::size_t rows = a.rows(), cols = a.cols();
    // Work on a copy; forward elimination with partial pivoting.
    Matrix m = a;
    std::vector<std::size_t> pivot_col;
    std::size_t r = 0;
    for (std::size_t c = 0; c < cols && r < rows; ++c) {
        // Find pivot.
        std::size_t best = r;
        Real best_mag = std::abs(m(r, c));
        for (std::size_t i = r + 1; i < rows; ++i) {
            if (std::abs(m(i, c)) > best_mag) {
                best = i;
                best_mag = std::abs(m(i, c));
            }
        }
        if (best_mag <= tol) {
            continue;  // free column
        }
        if (best != r) {
            for (std::size_t j = 0; j < cols; ++j) {
                std::swap(m(best, j), m(r, j));
            }
        }
        const Complex piv = m(r, c);
        for (std::size_t j = 0; j < cols; ++j) {
            m(r, j) /= piv;
        }
        for (std::size_t i = 0; i < rows; ++i) {
            if (i == r) {
                continue;
            }
            const Complex f = m(i, c);
            if (std::abs(f) > 0) {
                for (std::size_t j = 0; j < cols; ++j) {
                    m(i, j) -= f * m(r, j);
                }
            }
        }
        pivot_col.push_back(c);
        ++r;
    }
    // Free columns parameterise the null space.
    std::vector<std::size_t> free_cols;
    for (std::size_t c = 0; c < cols; ++c) {
        if (std::find(pivot_col.begin(), pivot_col.end(), c) ==
            pivot_col.end()) {
            free_cols.push_back(c);
        }
    }
    Matrix basis(cols, free_cols.size());
    for (std::size_t k = 0; k < free_cols.size(); ++k) {
        const std::size_t fc = free_cols[k];
        basis(fc, k) = Complex(1, 0);
        for (std::size_t i = 0; i < pivot_col.size(); ++i) {
            basis(pivot_col[i], k) = -m(i, fc);
        }
    }
    orthonormalize_columns(basis, tol);
    return basis;
}

Eigensystem
eigendecompose(const Matrix& u)
{
    const std::size_t n = u.rows();
    if (n != u.cols() || n == 0 || n > 4) {
        throw std::invalid_argument(
            "eigendecompose: requires square matrix of dimension 1..4");
    }
    Eigensystem es;
    if (n == 1) {
        es.values = {u(0, 0)};
        es.vectors = Matrix::identity(1);
        return es;
    }

    // Characteristic polynomial coefficients (monic), via traces
    // (Faddeev-LeVerrier for small n).
    std::vector<Complex> coeffs;
    if (n == 2) {
        const Complex tr = u.trace();
        const Complex det = u(0, 0) * u(1, 1) - u(0, 1) * u(1, 0);
        coeffs = {det, -tr};  // x^2 - tr x + det
    } else if (n == 3) {
        const Complex tr = u.trace();
        const Matrix u2 = u * u;
        const Complex tr2 = u2.trace();
        const Complex c2 = -tr;
        const Complex c1 = (tr * tr - tr2) * Complex(0.5, 0);
        // det via cofactor expansion
        const Complex det =
            u(0, 0) * (u(1, 1) * u(2, 2) - u(1, 2) * u(2, 1)) -
            u(0, 1) * (u(1, 0) * u(2, 2) - u(1, 2) * u(2, 0)) +
            u(0, 2) * (u(1, 0) * u(2, 1) - u(1, 1) * u(2, 0));
        coeffs = {-det, c1, c2};
    } else {
        // n == 4: characteristic polynomial via Faddeev-LeVerrier, roots
        // via Durand-Kerner (reliable for unitary spectra on the circle).
        std::vector<Complex> c(n + 1);
        c[n] = Complex(1, 0);
        Matrix M = Matrix::zero(n, n);
        for (std::size_t k = 1; k <= n; ++k) {
            // M_k = U * M_{k-1} + c_{n-k+1} I
            if (k == 1) {
                M = Matrix::identity(n);
            } else {
                M = u * M;
                for (std::size_t i = 0; i < n; ++i) {
                    M(i, i) += c[n - k + 1];
                }
            }
            const Matrix um = u * M;
            c[n - k] = um.trace() * Complex(-1.0 / static_cast<Real>(k), 0);
        }
        coeffs.assign(c.begin(), c.end() - 1);
        // Quartic: factor by finding one root of the resolvent is overkill;
        // use Durand-Kerner style: Newton from perturbed starts on the monic
        // quartic. For our use (unitary matrices, eigenvalues on the unit
        // circle) Newton from roots of unity converges reliably.
        std::vector<Complex> roots;
        std::vector<Complex> starts;
        for (int k = 0; k < 8; ++k) {
            const Real ang = 2 * kPi * (k + 0.37) / 8.0;
            starts.emplace_back(std::cos(ang), std::sin(ang));
        }
        // Durand-Kerner iteration on 4 simultaneous roots.
        std::vector<Complex> z = {starts[0], starts[2], starts[4], starts[6]};
        auto poly = [&](Complex x) {
            Complex v(1, 0);
            for (std::size_t i = 0; i < 4; ++i) {
                v = v * x + coeffs[3 - i];
            }
            return v;
        };
        for (int iter = 0; iter < 200; ++iter) {
            Real moved = 0;
            for (int i = 0; i < 4; ++i) {
                Complex denom(1, 0);
                for (int j = 0; j < 4; ++j) {
                    if (j != i) {
                        denom *= (z[i] - z[j]);
                    }
                }
                if (std::abs(denom) < 1e-300) {
                    z[i] += Complex(1e-8, 1e-8);
                    continue;
                }
                const Complex step = poly(z[i]) / denom;
                z[i] -= step;
                moved = std::max(moved, std::abs(step));
            }
            if (moved < 1e-14) {
                break;
            }
        }
        es.values = z;
        // fallthrough to eigenvector extraction below
        coeffs.clear();
        goto vectors;
    }

    es.values = polynomial_roots(coeffs);

vectors:
    // Cluster equal eigenvalues and extract orthonormal eigenvectors from
    // null spaces. Normality of u guarantees the spaces are orthogonal.
    {
        std::vector<bool> used(es.values.size(), false);
        Matrix vecs(n, n);
        std::size_t col = 0;
        std::vector<Complex> final_vals;
        for (std::size_t i = 0; i < es.values.size(); ++i) {
            if (used[i]) {
                continue;
            }
            // Cluster.
            std::size_t multiplicity = 1;
            Complex lam = es.values[i];
            used[i] = true;
            for (std::size_t j = i + 1; j < es.values.size(); ++j) {
                if (!used[j] && std::abs(es.values[j] - lam) < 1e-6) {
                    lam = (lam * static_cast<Real>(multiplicity) +
                           es.values[j]) /
                          static_cast<Real>(multiplicity + 1);
                    used[j] = true;
                    ++multiplicity;
                }
            }
            Matrix shifted = u;
            for (std::size_t k = 0; k < n; ++k) {
                shifted(k, k) -= lam;
            }
            Matrix ns = null_space(shifted, 1e-7);
            // Guard: numerical rank may disagree with multiplicity; retry
            // with looser tolerance if too few vectors found.
            if (ns.cols() < multiplicity) {
                ns = null_space(shifted, 1e-5);
            }
            for (std::size_t k = 0; k < multiplicity && k < ns.cols(); ++k) {
                for (std::size_t r = 0; r < n; ++r) {
                    vecs(r, col) = ns(r, k);
                }
                final_vals.push_back(lam);
                ++col;
            }
        }
        if (col != n) {
            throw std::runtime_error(
                "eigendecompose: failed to extract a full eigenbasis");
        }
        es.vectors = vecs;
        es.values = final_vals;
    }
    return es;
}

Matrix
unitary_power(const Matrix& u, Real t)
{
    Eigensystem es = eigendecompose(u);
    // Eigenvectors of distinct eigenvalues come from separate null spaces,
    // so on a near-degenerate spectrum (a root of a root tends to the
    // identity) they are orthogonal only to about (rounding / gap), and
    // V D V^dagger is off unitary by as much — an error the next root
    // amplifies again. Orthonormalising the basis and putting every
    // powered eigenvalue on the unit circle keeps the result unitary to
    // rounding.
    orthonormalize_columns(es.vectors, 0.0);
    const std::size_t n = u.rows();
    std::vector<Complex> powered(n);
    for (std::size_t i = 0; i < n; ++i) {
        powered[i] = std::polar(1.0, std::arg(es.values[i]) * t);
    }
    return es.vectors * Matrix::diagonal(powered) * es.vectors.dagger();
}

}  // namespace qd
