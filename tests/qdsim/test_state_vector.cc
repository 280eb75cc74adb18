#include "qdsim/state_vector.h"

#include <cmath>

#include <gtest/gtest.h>

#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"

namespace qd {
namespace {

TEST(StateVector, InitialState) {
    StateVector psi(WireDims::uniform(2, 3));
    EXPECT_EQ(psi[0], Complex(1, 0));
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);
}

TEST(StateVector, BasisStateConstructor) {
    StateVector psi(WireDims({2, 3}), {1, 2});
    EXPECT_EQ(psi[5], Complex(1, 0));
    EXPECT_EQ(psi[0], Complex(0, 0));
}

TEST(StateVector, SingleWireGateOnEachWire) {
    // X on wire 1 of |00> over 2 qubits -> |01>
    StateVector psi(WireDims::uniform(2, 2));
    const int wires1[] = {1};
    psi.apply(gates::X().matrix(), wires1);
    EXPECT_NEAR(std::abs(psi[1]), 1.0, 1e-12);

    StateVector psi2(WireDims::uniform(2, 2));
    const int wires0[] = {0};
    psi2.apply(gates::X().matrix(), wires0);
    EXPECT_NEAR(std::abs(psi2[2]), 1.0, 1e-12);
}

TEST(StateVector, QutritShiftCycles) {
    StateVector psi(WireDims::uniform(1, 3));
    const int w[] = {0};
    psi.apply(gates::Xplus1().matrix(), w);
    EXPECT_NEAR(std::abs(psi[1]), 1.0, 1e-12);
    psi.apply(gates::Xplus1().matrix(), w);
    EXPECT_NEAR(std::abs(psi[2]), 1.0, 1e-12);
    psi.apply(gates::Xplus1().matrix(), w);
    EXPECT_NEAR(std::abs(psi[0]), 1.0, 1e-12);
}

TEST(StateVector, CnotWireOrderMatters) {
    // CNOT with control on wire 1, target wire 0: |01> -> |11>.
    StateVector psi(WireDims::uniform(2, 2), {0, 1});
    const int wires[] = {1, 0};  // control listed first
    psi.apply(gates::CNOT().matrix(), wires);
    EXPECT_NEAR(std::abs(psi[3]), 1.0, 1e-12);
}

TEST(StateVector, TwoWireGateAgainstKron) {
    // Applying (H x X) via one 2-wire op == applying H and X separately.
    Rng rng(7);
    StateVector psi = haar_random_state(WireDims::uniform(3, 2), rng);
    StateVector a = psi, b = psi;
    const Matrix hx = gates::H().matrix().kron(gates::X().matrix());
    const int wires[] = {0, 2};
    a.apply(hx, wires);
    const int w0[] = {0}, w2[] = {2};
    b.apply(gates::H().matrix(), w0);
    b.apply(gates::X().matrix(), w2);
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-10);
}

TEST(StateVector, MixedRadixGateApplication) {
    // Controlled +1 on a (qubit control, qutrit target) pair.
    const WireDims dims({2, 3});
    StateVector psi(dims, {1, 1});
    const Gate cshift = gates::Xplus1().controlled(2, 1);
    const int wires[] = {0, 1};
    psi.apply(cshift.matrix(), wires);
    EXPECT_NEAR(std::abs(psi[dims.pack({1, 2})]), 1.0, 1e-12);
}

TEST(StateVector, PopulationsSumToOne) {
    Rng rng(13);
    StateVector psi = haar_random_state(WireDims::uniform(3, 3), rng);
    for (int w = 0; w < 3; ++w) {
        const auto pops = psi.populations(w);
        Real sum = 0;
        for (const Real p : pops) {
            sum += p;
        }
        EXPECT_NEAR(sum, 1.0, 1e-10);
        for (int v = 0; v < 3; ++v) {
            EXPECT_NEAR(pops[static_cast<std::size_t>(v)],
                        psi.population(w, v), 1e-12);
        }
    }
}

TEST(StateVector, PopulationOfBasisState) {
    StateVector psi(WireDims::uniform(3, 3), {0, 2, 1});
    EXPECT_NEAR(psi.population(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(psi.population(1, 2), 1.0, 1e-12);
    EXPECT_NEAR(psi.population(2, 1), 1.0, 1e-12);
    EXPECT_NEAR(psi.population(1, 0), 0.0, 1e-12);
}

TEST(StateVector, NormalizeAfterDamping) {
    StateVector psi(WireDims::uniform(1, 2));
    psi[0] = Complex(0.5, 0);
    psi[1] = Complex(0.5, 0);
    EXPECT_TRUE(psi.normalize());
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);
}

TEST(StateVector, NormalizeReportsZeroNorm) {
    // Regression: normalize() used to silently no-op on the zero vector,
    // masking fully-damped/invalid states in trajectory jump branches.
    StateVector psi(WireDims::uniform(2, 3));
    psi[0] = Complex(0, 0);  // now the all-zero vector
    EXPECT_FALSE(psi.normalize());
    EXPECT_NEAR(psi.norm(), 0.0, 1e-12);  // state left untouched
    psi[4] = Complex(0, 2);
    EXPECT_TRUE(psi.normalize());
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);
}

TEST(StateVector, InnerProductAndFidelity) {
    StateVector a(WireDims::uniform(1, 2));
    StateVector b(WireDims::uniform(1, 2));
    b[0] = Complex(0, 0);
    b[1] = Complex(1, 0);
    EXPECT_NEAR(std::abs(a.inner(b)), 0.0, 1e-12);
    EXPECT_NEAR(a.fidelity(a), 1.0, 1e-12);
    EXPECT_NEAR(a.fidelity(b), 0.0, 1e-12);
}

TEST(StateVector, ApplyRejectsWrongSize) {
    StateVector psi(WireDims::uniform(2, 2));
    const int w[] = {0};
    EXPECT_THROW(psi.apply(Matrix::identity(3), w), std::invalid_argument);
}

TEST(StateVector, ApplyRejectsDuplicateWires) {
    // Regression: a duplicate wire used to silently corrupt the state (the
    // gather/scatter offsets collide); it must be rejected up front.
    StateVector psi(WireDims::uniform(2, 2));
    const int w[] = {0, 0};
    EXPECT_THROW(psi.apply(gates::CNOT().matrix(), w),
                 std::invalid_argument);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);  // state untouched
}

TEST(StateVector, ApplyRejectsOutOfRangeWire) {
    StateVector psi(WireDims::uniform(2, 2));
    const int neg[] = {-1};
    EXPECT_THROW(psi.apply(gates::X().matrix(), neg),
                 std::invalid_argument);
    const int big[] = {2};
    EXPECT_THROW(psi.apply(gates::X().matrix(), big),
                 std::invalid_argument);
}

TEST(StateVector, NonUnitaryKrausApplication) {
    // Amplitude-damping jump operator K1 = sqrt(l) |0><1| on a qubit.
    StateVector psi(WireDims::uniform(1, 2));
    psi[0] = Complex(std::sqrt(0.5), 0);
    psi[1] = Complex(std::sqrt(0.5), 0);
    Matrix k1(2, 2);
    k1(0, 1) = Complex(std::sqrt(0.3), 0);
    const int w[] = {0};
    psi.apply(k1, w);
    EXPECT_NEAR(std::norm(psi[0]), 0.15, 1e-12);
    EXPECT_NEAR(std::norm(psi[1]), 0.0, 1e-12);
    EXPECT_TRUE(psi.normalize());
    EXPECT_NEAR(psi.population(0, 0), 1.0, 1e-12);
}

TEST(StateVector, ThreeWireGate) {
    // CCX via one 3-wire matrix on wires (2,0,1) of |101>:
    // controls wires 2 and 0 are both 1 -> flips wire 1.
    StateVector psi(WireDims::uniform(3, 2), {1, 0, 1});
    const Gate ccx = gates::CCX();
    const int wires[] = {2, 0, 1};
    psi.apply(ccx.matrix(), wires);
    const WireDims dims = WireDims::uniform(3, 2);
    EXPECT_NEAR(std::abs(psi[dims.pack({1, 1, 1})]), 1.0, 1e-12);
}

}  // namespace
}  // namespace qd
