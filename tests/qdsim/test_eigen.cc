#include "qdsim/eigen.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"

namespace qd {
namespace {

TEST(PolynomialRoots, Linear) {
    auto r = polynomial_roots({Complex(-3, 0)});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_NEAR(std::abs(r[0] - Complex(3, 0)), 0.0, 1e-12);
}

TEST(PolynomialRoots, QuadraticRealRoots) {
    // (x-1)(x-2) = x^2 -3x + 2
    auto r = polynomial_roots({Complex(2, 0), Complex(-3, 0)});
    ASSERT_EQ(r.size(), 2u);
    std::sort(r.begin(), r.end(),
              [](Complex a, Complex b) { return a.real() < b.real(); });
    EXPECT_NEAR(std::abs(r[0] - Complex(1, 0)), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(r[1] - Complex(2, 0)), 0.0, 1e-10);
}

TEST(PolynomialRoots, CubicRootsOfUnity) {
    // x^3 - 1
    auto r = polynomial_roots({Complex(-1, 0), Complex(0, 0), Complex(0, 0)});
    ASSERT_EQ(r.size(), 3u);
    for (const Complex& root : r) {
        EXPECT_NEAR(std::abs(root * root * root - Complex(1, 0)), 0.0, 1e-9);
    }
}

TEST(PolynomialRoots, RepeatedRoot) {
    // (x-1)^3 = x^3 - 3x^2 + 3x - 1
    auto r = polynomial_roots(
        {Complex(-1, 0), Complex(3, 0), Complex(-3, 0)});
    ASSERT_EQ(r.size(), 3u);
    for (const Complex& root : r) {
        EXPECT_NEAR(std::abs(root - Complex(1, 0)), 0.0, 1e-4);
    }
}

TEST(NullSpace, RankDeficient) {
    Matrix a{{1, 1}, {1, 1}};
    Matrix ns = null_space(a);
    ASSERT_EQ(ns.cols(), 1u);
    // (1, -1)/sqrt(2) up to phase
    EXPECT_NEAR(std::abs(ns(0, 0) + ns(1, 0)), 0.0, 1e-9);
    EXPECT_NEAR(std::norm(ns(0, 0)) + std::norm(ns(1, 0)), 1.0, 1e-9);
}

TEST(NullSpace, FullRankEmpty) {
    Matrix a{{1, 0}, {0, 1}};
    EXPECT_EQ(null_space(a).cols(), 0u);
}

void
expect_valid_eigensystem(const Matrix& u)
{
    const Eigensystem es = eigendecompose(u);
    const std::size_t n = u.rows();
    ASSERT_EQ(es.values.size(), n);
    ASSERT_EQ(es.vectors.rows(), n);
    ASSERT_EQ(es.vectors.cols(), n);
    // V diag V^dagger reconstructs u.
    const Matrix recon =
        es.vectors * Matrix::diagonal(es.values) * es.vectors.dagger();
    EXPECT_LT(recon.distance(u), 1e-6) << u.to_string();
    // V unitary.
    EXPECT_TRUE(es.vectors.is_unitary(1e-6));
}

TEST(Eigendecompose, PauliX) {
    expect_valid_eigensystem(gates::X().matrix());
}

TEST(Eigendecompose, DegenerateDiagonal) {
    expect_valid_eigensystem(Matrix::diagonal({1, -1, 1}));
}

TEST(Eigendecompose, TernaryCycle) {
    expect_valid_eigensystem(gates::Xplus1().matrix());
}

TEST(Eigendecompose, TernaryFourier) {
    expect_valid_eigensystem(gates::H3().matrix());
}

TEST(Eigendecompose, Identity3) {
    expect_valid_eigensystem(Matrix::identity(3));
}

TEST(Eigendecompose, RandomUnitaries) {
    Rng rng(1234);
    for (int trial = 0; trial < 25; ++trial) {
        for (std::size_t n = 2; n <= 3; ++n) {
            expect_valid_eigensystem(haar_random_unitary(n, rng));
        }
    }
}

TEST(UnitaryPower, SqrtOfXSquaresToX) {
    const Matrix x = gates::X().matrix();
    const Matrix v = unitary_power(x, 0.5);
    EXPECT_LT((v * v).distance(x), 1e-9);
    EXPECT_TRUE(v.is_unitary());
}

TEST(UnitaryPower, CubeRootOfTernaryCycle) {
    const Matrix u = gates::Xplus1().matrix();
    const Matrix w = unitary_power(u, 1.0 / 3.0);
    EXPECT_LT((w * w * w).distance(u), 1e-9);
    EXPECT_TRUE(w.is_unitary());
}

TEST(UnitaryPower, CubeRootOfEmbeddedZ) {
    // diag(1, -1, 1): degenerate spectrum.
    const Matrix u = Matrix::diagonal({1, -1, 1});
    const Matrix w = unitary_power(u, 1.0 / 3.0);
    EXPECT_LT((w * w * w).distance(u), 1e-8);
}

TEST(UnitaryPower, RandomCubeRoots) {
    Rng rng(99);
    for (int trial = 0; trial < 25; ++trial) {
        const Matrix u = haar_random_unitary(3, rng);
        const Matrix w = unitary_power(u, 1.0 / 3.0);
        EXPECT_LT((w * w * w).distance(u), 1e-6);
        EXPECT_TRUE(w.is_unitary(1e-6));
    }
}

TEST(UnitaryPower, SmallAngleRecursion) {
    // X^{1/2^k} gates used by the ancilla-free qubit construction.
    Matrix acc = gates::X().matrix();
    for (int k = 1; k <= 20; ++k) {
        const Matrix v = unitary_power(gates::X().matrix(),
                                       1.0 / static_cast<Real>(1 << k));
        Matrix p = v;
        for (int j = 1; j < (1 << k); ++j) {
            p = p * v;
        }
        EXPECT_LT(p.distance(gates::X().matrix()), 1e-6) << "k=" << k;
        if (k >= 6) {
            break;  // enough powers; cost grows as 2^k
        }
    }
    (void)acc;
}

TEST(UnitaryPower, RepeatedSquareRootsStayUnitary) {
    // The ancilla-free qubit construction takes each X^{1/2^k} as the
    // square root of the previous root. The eigenbasis of a near-identity
    // root used to come out non-orthogonal by (rounding / eigenvalue gap),
    // and every level amplified it: |V V^dagger - I| reached 7e-5 at
    // k = 10 and 0.046 at k = 11.
    Matrix v = gates::X().matrix();
    for (int k = 1; k <= 16; ++k) {
        const Matrix root = unitary_power(v, 0.5);
        EXPECT_TRUE(root.is_unitary(1e-12)) << "k=" << k;
        EXPECT_LT((root * root).distance(v), 1e-10) << "k=" << k;
        v = root;
    }
}

TEST(Eigendecompose, FourByFourRandomUnitaries) {
    // Exercises the Durand-Kerner quartic path.
    Rng rng(4444);
    for (int trial = 0; trial < 10; ++trial) {
        expect_valid_eigensystem(haar_random_unitary(4, rng));
    }
}

TEST(Eigendecompose, FourByFourKron) {
    const Matrix u = gates::H().matrix().kron(gates::S().matrix());
    expect_valid_eigensystem(u);
}

TEST(UnitaryPower, FourByFourSqrt) {
    Rng rng(4545);
    const Matrix u = haar_random_unitary(4, rng);
    const Matrix v = unitary_power(u, 0.5);
    EXPECT_LT((v * v).distance(u), 1e-6);
}

TEST(Eigendecompose, RejectsOversized) {
    EXPECT_THROW(eigendecompose(Matrix::identity(5)),
                 std::invalid_argument);
    EXPECT_THROW(eigendecompose(Matrix(2, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace qd
