#include "qdsim/random_state.h"

#include <gtest/gtest.h>

namespace qd {
namespace {

TEST(RandomState, UnitNorm) {
    Rng rng(1);
    const StateVector psi = haar_random_state(WireDims::uniform(4, 3), rng);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-10);
}

TEST(RandomState, DeterministicForSeed) {
    Rng a(42), b(42);
    const StateVector s1 = haar_random_state(WireDims::uniform(3, 2), a);
    const StateVector s2 = haar_random_state(WireDims::uniform(3, 2), b);
    EXPECT_NEAR(s1.fidelity(s2), 1.0, 1e-12);
}

TEST(RandomState, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    const StateVector s1 = haar_random_state(WireDims::uniform(3, 2), a);
    const StateVector s2 = haar_random_state(WireDims::uniform(3, 2), b);
    EXPECT_LT(s1.fidelity(s2), 0.999);
}

TEST(RandomState, QubitSubspaceSupport) {
    Rng rng(7);
    const WireDims dims = WireDims::uniform(3, 3);
    const StateVector psi = haar_random_qubit_subspace_state(dims, rng);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-10);
    for (Index i = 0; i < dims.size(); ++i) {
        const auto digits = dims.unpack(i);
        bool in_subspace = true;
        for (const int d : digits) {
            if (d >= 2) {
                in_subspace = false;
                break;
            }
        }
        if (!in_subspace) {
            EXPECT_EQ(psi[i], Complex(0, 0)) << "index " << i;
        }
    }
    // All 2^3 qubit basis states should (almost surely) carry amplitude.
    int nonzero = 0;
    for (Index i = 0; i < dims.size(); ++i) {
        if (std::abs(psi[i]) > 1e-12) {
            ++nonzero;
        }
    }
    EXPECT_EQ(nonzero, 8);
}

TEST(RandomState, QubitSubspaceOnMixedRadix) {
    Rng rng(9);
    const WireDims dims({2, 3, 4});
    const StateVector psi = haar_random_qubit_subspace_state(dims, rng);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-10);
    int nonzero = 0;
    for (Index i = 0; i < dims.size(); ++i) {
        if (std::abs(psi[i]) > 1e-12) {
            ++nonzero;
            for (const int d : dims.unpack(i)) {
                EXPECT_LT(d, 2);
            }
        }
    }
    EXPECT_EQ(nonzero, 8);
}

TEST(RandomState, PopulationsRoughlyUniform) {
    // Mean population of each level over many Haar states approaches 1/d.
    Rng rng(31337);
    const WireDims dims = WireDims::uniform(2, 3);
    std::vector<Real> mean(3, 0.0);
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        const StateVector psi = haar_random_state(dims, rng);
        const auto pops = psi.populations(0);
        for (int v = 0; v < 3; ++v) {
            mean[static_cast<std::size_t>(v)] += pops[
                static_cast<std::size_t>(v)];
        }
    }
    for (int v = 0; v < 3; ++v) {
        EXPECT_NEAR(mean[static_cast<std::size_t>(v)] / trials, 1.0 / 3.0,
                    0.05);
    }
}

TEST(RandomUnitary, IsUnitaryAndSeeded) {
    Rng rng(5);
    for (std::size_t n = 2; n <= 5; ++n) {
        EXPECT_TRUE(haar_random_unitary(n, rng).is_unitary(1e-9));
    }
    Rng a(77), b(77);
    EXPECT_TRUE(haar_random_unitary(3, a).approx_equal(
        haar_random_unitary(3, b)));
}

TEST(Rng, ChildStreamsIndependent) {
    Rng root(123);
    Rng c0 = root.child(0);
    Rng c1 = root.child(1);
    bool any_diff = false;
    for (int i = 0; i < 8; ++i) {
        if (c0.uniform() != c1.uniform()) {
            any_diff = true;
        }
    }
    EXPECT_TRUE(any_diff);
    // Same child index reproduces.
    Rng c0b = root.child(0);
    Rng c0c = Rng(123).child(0);
    EXPECT_EQ(c0b.uniform_int(1u << 30), c0c.uniform_int(1u << 30));
}

TEST(Rng, WeightedDrawRespectsWeights) {
    // Zero weights first, between and last: neither a draw at u == 0 nor
    // rounding past the last arm may land on one.
    Rng rng(55);
    int counts[5] = {0, 0, 0, 0, 0};
    for (int i = 0; i < 30000; ++i) {
        ++counts[rng.weighted_draw({0.0, 0.2, 0.0, 0.8, 0.0}).value()];
    }
    EXPECT_EQ(counts[0], 0);
    EXPECT_EQ(counts[2], 0);
    EXPECT_EQ(counts[4], 0);
    EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
    EXPECT_NEAR(counts[3] / 30000.0, 0.8, 0.02);
}

TEST(Rng, WeightedDrawAllZerosIsSignalled) {
    // Regression: an all-zero weight vector used to "draw" the last arm,
    // which let the trajectory engine pick a zero-population damping jump
    // and die renormalising a zero state. Zero total is now an explicit
    // no-draw outcome, and no randomness may be consumed by it.
    Rng rng(1);
    EXPECT_EQ(rng.weighted_draw({0.0, 0.0}), std::nullopt);
    EXPECT_EQ(rng.weighted_draw({}), std::nullopt);
    Rng a(9), b(9);
    EXPECT_EQ(a.weighted_draw({0.0, 0.0}), std::nullopt);
    EXPECT_EQ(a.uniform(), b.uniform());  // stream position unchanged
}

TEST(Rng, UniformIntRejectsEmptyRange) {
    // Regression: uniform_int(0) underflowed to a full-range 64-bit draw.
    Rng rng(2);
    EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
    EXPECT_EQ(rng.uniform_int(1), 0u);
}

}  // namespace
}  // namespace qd
