/**
 * Property tests for the compiled density-matrix engine: a conjugation
 * through every kernel class (permutation, diagonal, monomial, single-wire
 * d=2/d=3, controlled-subspace, dense) and every closed-form noise channel
 * (depolarizing, damping, dephasing) must match the dense expand() oracle
 * on random mixed-radix density matrices, including non-unitary Kraus
 * sets; results must not depend on the thread budget or on other threads
 * sharing the compilation; the trajectory engine must converge to the
 * compiled exact evolution, on every Figure 11 cell.
 */
#include "noise/density_matrix.h"

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "constructions/gen_toffoli.h"
#include "noise/channels.h"
#include "noise/error_placement.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/gate_library.h"
#include "qdsim/moments.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace qd::noise {
namespace {

using exec::KernelKind;

/** Random dense (generally non-unitary) operator. */
Matrix
random_matrix(std::size_t n, Rng& rng)
{
    Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            m(r, c) = rng.complex_gaussian() * 0.5;
        }
    }
    return m;
}

/** Random mixed state: a weighted mixture of a few Haar-random pures. */
Matrix
random_mixed_rho(const WireDims& dims, Rng& rng)
{
    const Index n = dims.size();
    Matrix rho(n, n);
    Real total = 0;
    std::vector<Real> weights;
    for (int i = 0; i < 3; ++i) {
        weights.push_back(0.1 + rng.uniform());
        total += weights.back();
    }
    for (int i = 0; i < 3; ++i) {
        const StateVector psi = haar_random_state(dims, rng);
        const Real w = weights[static_cast<std::size_t>(i)] / total;
        for (Index r = 0; r < n; ++r) {
            for (Index c = 0; c < n; ++c) {
                rho(r, c) += w * psi[r] * std::conj(psi[c]);
            }
        }
    }
    return rho;
}

void
expect_rho_equal(const Matrix& a, const Matrix& b, Real tol,
                 const char* what)
{
    ASSERT_EQ(a.rows(), b.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
            EXPECT_NEAR(std::abs(a(r, c) - b(r, c)), 0.0, tol)
                << what << " at (" << r << ", " << c << ")";
        }
    }
}

/** A random (generally non-unitary) operator as a Gate over `wires`. */
Gate
random_gate(const WireDims& dims, const std::vector<int>& wires, Rng& rng)
{
    std::vector<int> gdims;
    std::size_t block = 1;
    for (const int w : wires) {
        gdims.push_back(dims.dim(w));
        block *= static_cast<std::size_t>(dims.dim(w));
    }
    return Gate("rand", gdims, random_matrix(block, rng));
}

/** Applies `gate` to copies of a random mixed rho via the compiled and the
 *  dense-oracle path, expecting agreement; returns the routed kernel. */
KernelKind
check_unitary_against_oracle(const WireDims& dims, const Gate& gate,
                             const std::vector<int>& wires, Rng& rng)
{
    const Matrix rho = random_mixed_rho(dims, rng);
    DensityMatrix compiled(dims, rho);
    DensityMatrix dense(dims, rho);
    const exec::CompiledOp op =
        exec::compile_op(dims, gate, wires, &compiled.plan_cache());
    compiled.apply(op);
    dense.apply_unitary_dense(gate.matrix(), wires);
    expect_rho_equal(compiled.rho(), dense.rho(), 1e-10,
                     exec::kernel_name(op.kind));
    return op.kind;
}

TEST(DensityMatrix, CompiledUnitaryMatchesOracleOnRandomOperators) {
    // D = 8 and 32 are powers of two, 18 and 27 cross a transpose tile
    // edge without filling the tile.
    Rng rng(301);
    const std::vector<std::vector<int>> registers = {
        {2, 2, 2}, {3, 3}, {2, 3, 2}, {3, 2, 3}, {3, 3, 3}, {2, 2, 2, 2, 2}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        for (int k = 1; k <= 2; ++k) {
            for (int rep = 0; rep < 2; ++rep) {
                std::vector<int> wires;
                for (int w = 0; w < dims.num_wires() &&
                     static_cast<int>(wires.size()) < k; ++w) {
                    wires.push_back((w + rep) % dims.num_wires());
                }
                std::vector<int> gdims;
                std::size_t block = 1;
                for (const int w : wires) {
                    gdims.push_back(dims.dim(w));
                    block *= static_cast<std::size_t>(dims.dim(w));
                }
                const Gate g("rand", gdims,
                             haar_random_unitary(block, rng));
                const KernelKind expected =
                    k == 2 ? KernelKind::kDense
                    : gdims[0] == 2 ? KernelKind::kSingleWireD2
                                    : KernelKind::kSingleWireD3;
                EXPECT_EQ(check_unitary_against_oracle(dims, g, wires, rng),
                          expected);
            }
        }
    }
}

TEST(DensityMatrix, KernelRoutingMatchesOperatorStructure) {
    Rng rng(302);
    const WireDims q3 = WireDims::uniform(3, 3);
    const WireDims mixed({2, 3, 2});
    // Phase-only gates route to the diagonal kernel.
    EXPECT_EQ(check_unitary_against_oracle(q3, gates::Z3(), {1}, rng),
              KernelKind::kDiagonal);
    // Pure permutations move values along cycles.
    EXPECT_EQ(check_unitary_against_oracle(q3, gates::Xplus1(), {2}, rng),
              KernelKind::kPermutation);
    EXPECT_EQ(check_unitary_against_oracle(
                  mixed, gates::Xplus1().controlled(2, 1), {2, 1}, rng),
              KernelKind::kPermutation);
    // Generalized permutations add a phase per move (on one qutrit they
    // take the single-wire kernel instead).
    EXPECT_EQ(check_unitary_against_oracle(
                  q3,
                  Gate("ZxX", {3, 3},
                       gates::Z3().matrix().kron(gates::Xplus1().matrix())),
                  {2, 0}, rng),
              KernelKind::kMonomial);
    // Controlled gates touch only the active control subspace.
    EXPECT_EQ(check_unitary_against_oracle(
                  q3, gates::H3().controlled(3, 2), {0, 2}, rng),
              KernelKind::kControlled);
    // Single-wire unrolled kernels, qubit and qutrit.
    EXPECT_EQ(check_unitary_against_oracle(
                  q3, Gate("rand", {3}, haar_random_unitary(3, rng)), {1},
                  rng),
              KernelKind::kSingleWireD3);
    EXPECT_EQ(check_unitary_against_oracle(
                  mixed, Gate("rand", {2}, haar_random_unitary(2, rng)), {2},
                  rng),
              KernelKind::kSingleWireD2);
    // Generic dense fallback.
    EXPECT_EQ(check_unitary_against_oracle(
                  mixed, Gate("rand", {2, 3}, haar_random_unitary(6, rng)),
                  {0, 1}, rng),
              KernelKind::kDense);
    // Block-monomial: a level shift on the control before a controlled
    // gate moves each target block to another control value.
    EXPECT_EQ(check_unitary_against_oracle(
                  q3,
                  Gate("C[2]H3.X+1", {3, 3},
                       gates::H3().controlled(3, 2).matrix() *
                           gates::Xplus1().matrix().kron(
                               Matrix::identity(3))),
                  {2, 0}, rng),
              KernelKind::kBlockMonomial);
}

TEST(DensityMatrix, MonomialKernelCoversGeneralizedPaulis) {
    // Every two-wire X^j Z^k depolarizing term is a generalized
    // permutation; it must route to a structured kernel and reproduce the
    // oracle.
    Rng rng(303);
    const WireDims dims({3, 2, 3});
    const MixedUnitaryChannel ch = depolarizing2(3, 2, 0.01);
    const std::vector<int> wires = {2, 1};
    for (const Matrix& u : ch.unitaries) {
        const KernelKind kind = check_unitary_against_oracle(
            dims, Gate("pauli", {3, 2}, u), wires, rng);
        EXPECT_TRUE(kind == KernelKind::kPermutation ||
                    kind == KernelKind::kDiagonal ||
                    kind == KernelKind::kMonomial)
            << "generalized Pauli routed to " << exec::kernel_name(kind);
    }
}

TEST(DensityMatrix, CompiledChannelMatchesOracleOnNonUnitaryKraus) {
    Rng rng(304);
    const std::vector<std::vector<int>> registers = {{2, 3, 2}, {3, 3, 2}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        for (int k = 1; k <= 2; ++k) {
            const std::vector<int> wires =
                k == 1 ? std::vector<int>{1} : std::vector<int>{2, 0};
            std::size_t block = 1;
            for (const int w : wires) {
                block *= static_cast<std::size_t>(dims.dim(w));
            }
            // A random (not even trace-preserving) Kraus set: the engine
            // must reproduce sum_i K_i rho K_i^dagger verbatim.
            KrausChannel ch;
            for (int i = 0; i < 3; ++i) {
                ch.operators.push_back(random_matrix(block, rng));
            }
            const Matrix rho = random_mixed_rho(dims, rng);
            DensityMatrix compiled(dims, rho);
            DensityMatrix dense(dims, rho);
            compiled.apply_channel(ch, wires);
            dense.apply_channel_dense(ch, wires);
            expect_rho_equal(compiled.rho(), dense.rho(), 1e-10, "kraus");
        }
    }
}

TEST(DensityMatrix, AmplitudeDampingChannelMatchesOracle) {
    Rng rng(305);
    const WireDims dims({3, 3});
    const KrausChannel damp = amplitude_damping(3, {0.05, 0.12});
    ASSERT_TRUE(damp.is_complete());
    for (int w = 0; w < 2; ++w) {
        const std::vector<int> wires = {w};
        const Matrix rho = random_mixed_rho(dims, rng);
        DensityMatrix compiled(dims, rho);
        DensityMatrix dense(dims, rho);
        compiled.apply_channel(damp, wires);
        dense.apply_channel_dense(damp, wires);
        expect_rho_equal(compiled.rho(), dense.rho(), 1e-10, "damping");
        EXPECT_NEAR(compiled.trace_real(), 1.0, 1e-10);
    }
}

TEST(DensityMatrix, TwoQutritDepolarizingChannelMatchesOracle) {
    Rng rng(306);
    const WireDims dims = WireDims::uniform(3, 3);
    const std::vector<int> wires = {0, 2};
    const KrausChannel ch = depolarizing2(3, 3, 1e-3).to_kraus(9);
    ASSERT_TRUE(ch.is_complete());
    const Matrix rho = random_mixed_rho(dims, rng);
    DensityMatrix compiled(dims, rho);
    DensityMatrix dense(dims, rho);
    compiled.apply_channel(ch, wires);
    dense.apply_channel_dense(ch, wires);
    expect_rho_equal(compiled.rho(), dense.rho(), 1e-10, "depolarizing2");
    EXPECT_NEAR(compiled.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, CompiledChannelReusableAcrossApplications) {
    // compile_channel once, apply across "moments": results must track
    // the oracle applied the same number of times.
    Rng rng(307);
    const WireDims dims({3, 2});
    const std::vector<int> wires = {0};
    const KrausChannel damp = amplitude_damping(3, {0.03, 0.08});
    const CompiledChannel compiled_ch = compile_channel(dims, damp, wires);
    const Matrix rho = random_mixed_rho(dims, rng);
    DensityMatrix compiled(dims, rho);
    DensityMatrix dense(dims, rho);
    for (int moment = 0; moment < 3; ++moment) {
        compiled.apply(compiled_ch);
        dense.apply_channel_dense(damp, wires);
    }
    expect_rho_equal(compiled.rho(), dense.rho(), 1e-10, "reuse");
}

/** Expects the closed-form channel to reproduce the dense Kraus oracle
 *  on a random mixed rho, to 1e-12, and to keep the trace at 1. */
void
check_noise_against_oracle(const WireDims& dims, const CompiledNoise& noise,
                           const KrausChannel& kraus,
                           const std::vector<int>& wires, Rng& rng,
                           const char* what)
{
    ASSERT_TRUE(kraus.is_complete());
    const Matrix rho = random_mixed_rho(dims, rng);
    DensityMatrix closed(dims, rho);
    DensityMatrix dense(dims, rho);
    closed.apply(noise);
    dense.apply_channel_dense(kraus, wires);
    expect_rho_equal(closed.rho(), dense.rho(), 1e-12, what);
    EXPECT_NEAR(closed.trace_real(), 1.0, 1e-12) << what;
}

TEST(DensityMatrix, ClosedFormDepolarizingMatchesKrausOracle) {
    // Every single wire and every ordered wire pair of both registers:
    // (2,2), (2,3), (3,2) and (3,3) operands, adjacent and not.
    Rng rng(312);
    const Real p = 0.01;
    for (const auto& reg : std::vector<std::vector<int>>{{2, 3, 2},
                                                         {3, 3, 2}}) {
        const WireDims dims(reg);
        for (int w = 0; w < dims.num_wires(); ++w) {
            const std::vector<int> wires = {w};
            const int d = dims.dim(w);
            check_noise_against_oracle(
                dims, compile_depolarizing(dims, wires, p),
                depolarizing1(d, p).to_kraus(static_cast<std::size_t>(d)),
                wires, rng, "depolarizing1");
        }
        for (int w0 = 0; w0 < dims.num_wires(); ++w0) {
            for (int w1 = 0; w1 < dims.num_wires(); ++w1) {
                if (w0 == w1) {
                    continue;
                }
                const std::vector<int> wires = {w0, w1};
                const int da = dims.dim(w0);
                const int db = dims.dim(w1);
                check_noise_against_oracle(
                    dims, compile_depolarizing(dims, wires, p),
                    depolarizing2(da, db, p)
                        .to_kraus(static_cast<std::size_t>(da * db)),
                    wires, rng, "depolarizing2");
            }
        }
    }
}

TEST(DensityMatrix, ClosedFormDampingMatchesKrausOracle) {
    Rng rng(313);
    NoiseModel level2_only;
    level2_only.t1 = 1e-6;
    level2_only.decay_rates = {0, 2};  // |1> metastable, |2> relaxes
    const Real lambda2 = level2_only.lambda(2, 3e-7);
    ASSERT_EQ(level2_only.lambda(1, 3e-7), 0.0);
    ASSERT_GT(lambda2, 0.0);
    for (const auto& reg : std::vector<std::vector<int>>{{2, 3, 2},
                                                         {3, 3, 2}}) {
        const WireDims dims(reg);
        for (int w = 0; w < dims.num_wires(); ++w) {
            const std::vector<int> wires = {w};
            std::vector<std::vector<Real>> cases;
            if (dims.dim(w) == 2) {
                cases = {{0.07}};
            } else {
                cases = {{0.05, 0.12}, {0.0, lambda2}};
            }
            for (const std::vector<Real>& lambdas : cases) {
                check_noise_against_oracle(
                    dims, compile_damping(dims, w, lambdas),
                    amplitude_damping(dims.dim(w), lambdas), wires, rng,
                    "damping");
            }
        }
    }
}

TEST(DensityMatrix, ClosedFormDephasingMatchesPerEntryFormula) {
    // The per-entry form the engine used before the closed-form pass:
    // rho(r, c) *= exp(-s^2 dj^2 / 2) with dj the wire's digit difference.
    Rng rng(314);
    const Real sigma = 0.7;
    for (const auto& reg : std::vector<std::vector<int>>{{2, 3, 2},
                                                         {3, 3, 2}}) {
        const WireDims dims(reg);
        for (int w = 0; w < dims.num_wires(); ++w) {
            const Matrix rho = random_mixed_rho(dims, rng);
            DensityMatrix closed(dims, rho);
            closed.apply(compile_dephasing(dims, w, sigma));
            Matrix expected = rho;
            for (Index r = 0; r < dims.size(); ++r) {
                for (Index c = 0; c < dims.size(); ++c) {
                    const int dj = dims.digit(r, w) - dims.digit(c, w);
                    if (dj != 0) {
                        expected(r, c) *=
                            std::exp(-0.5 * sigma * sigma * dj * dj);
                    }
                }
            }
            expect_rho_equal(closed.rho(), expected, 1e-12, "dephasing");
            EXPECT_NEAR(closed.trace_real(), 1.0, 1e-12);
        }
    }
}

TEST(DensityMatrix, ClosedFormNoiseRejectsInvalidParameters) {
    const WireDims dims({3, 3, 2});
    const std::vector<int> pair = {0, 1};
    // 80 two-qutrit Paulis at p = 0.02 sum to 1.6.
    EXPECT_THROW(compile_depolarizing(dims, pair, 0.02),
                 std::invalid_argument);
    EXPECT_THROW(compile_depolarizing(dims, pair, -1e-3),
                 std::invalid_argument);
    EXPECT_THROW(compile_damping(dims, 0, {0.1, -0.01}),
                 std::invalid_argument);
    EXPECT_THROW(compile_damping(dims, 0, {0.1}), std::invalid_argument);
    DensityMatrix other(WireDims({3, 3}), std::vector<int>{0, 0});
    EXPECT_THROW(other.apply(compile_dephasing(dims, 2, 0.5)),
                 std::invalid_argument);
}

TEST(DensityMatrix, CompilationRejectsInvalidNoise) {
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    NoiseModel m;
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    NoiseModel too_likely = m;
    too_likely.p2 = 0.02;  // 80 channels on the qutrit pair: 1.6 total
    EXPECT_THROW(DensityCompilation(c, too_likely), std::invalid_argument);
    NoiseModel negative_time = m;
    negative_time.t1 = 1e-3;
    negative_time.dt_1q = -100e-9;  // the H3 moment damps with lambda < 0
    EXPECT_THROW(DensityCompilation(c, negative_time),
                 std::invalid_argument);
}

TEST(DensityMatrix, FidelityRejectsStateOnOtherRegister) {
    const DensityMatrix dm(WireDims({2, 3}), std::vector<int>{1, 2});
    // Larger state: would read past rho.
    EXPECT_THROW(dm.fidelity(StateVector(WireDims({3, 3}))),
                 std::invalid_argument);
    // Same size, other dims.
    EXPECT_THROW(dm.fidelity(StateVector(WireDims({3, 2}))),
                 std::invalid_argument);
    EXPECT_NEAR(dm.fidelity(StateVector(WireDims({2, 3}), {1, 2})), 1.0,
                1e-15);
}

TEST(DensityMatrix, AdoptedRhoCtorValidatesSize) {
    EXPECT_THROW(DensityMatrix(WireDims({3, 3}), Matrix(4, 4)),
                 std::invalid_argument);
}

TEST(DensityMatrix, AdoptedRhoCtorRejectsNonHermitian) {
    // Conjugation computes K (K rho)^dagger, which is K rho K^dagger only
    // for a Hermitian rho.
    const WireDims dims({2, 3});
    Rng rng(315);
    const Matrix rho = random_mixed_rho(dims, rng);
    EXPECT_NO_THROW(DensityMatrix(dims, rho));
    Matrix skew = rho;
    skew(1, 4) += Complex(0, 1e-6);
    EXPECT_THROW(DensityMatrix(dims, skew), std::invalid_argument);
    Matrix complex_diag = rho;
    complex_diag(2, 2) += Complex(0, 1e-6);
    EXPECT_THROW(DensityMatrix(dims, complex_diag), std::invalid_argument);
}

TEST(DensityMatrix, ApplyRejectsOpOnOtherRegister) {
    DensityMatrix dm(WireDims({3, 3, 2}), std::vector<int>{0, 1, 0});
    const int w0[] = {0};
    // Same operand dims, other register size: the plan and the single-wire
    // run geometry would index past or short of rho.
    EXPECT_THROW(dm.apply(exec::compile_op(WireDims({3, 3}), gates::H3(), w0)),
                 std::invalid_argument);
    EXPECT_THROW(dm.apply(exec::compile_op(WireDims({3, 3}), gates::Z3(), w0)),
                 std::invalid_argument);
    KrausChannel ch;
    ch.operators.push_back(gates::H3().matrix());
    EXPECT_THROW(dm.apply(compile_channel(WireDims({3, 3, 3}), ch,
                                          std::vector<int>{0})),
                 std::invalid_argument);
    EXPECT_NEAR(dm.trace_real(), 1.0, 1e-15);
}

TEST(DensityMatrix, NoiselessCircuitFidelityIsOne) {
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    NoiseModel m;
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    Rng rng(308);
    const StateVector init = haar_random_state(c.dims(), rng);
    EXPECT_NEAR(density_matrix_fidelity(c, m, init), 1.0, 1e-9);
}

TEST(DensityMatrix, ErrorPlacementSplitsWideGatesIntoPairs) {
    // Shared policy: a 3-qudit gate draws one two-qudit channel per
    // adjacent operand pair, in both engines (regression for the old
    // density path which dropped wide-gate errors entirely).
    Circuit c(WireDims::uniform(3, 2));
    c.append(gates::CCX(), {0, 1, 2});
    NoiseModel m;
    m.p2 = 1e-3;
    const auto sites = enumerate_error_sites(c, m);
    ASSERT_EQ(sites.size(), 1u);
    ASSERT_EQ(sites[0].size(), 1u);
    EXPECT_EQ(sites[0][0].wires, (std::vector<int>{0, 1}));
    EXPECT_NEAR(sites[0][0].per_channel, m.per_channel_2q(2, 2), 1e-15);
}

TEST(DensityMatrix, IdleStretchesSumEachWiresMomentsBetweenItsOps) {
    // Moments: H3(0) | CX(0,1) | H3(1) | CX(1,2)... wire 3 is never
    // touched. A stretch runs from the moment of the wire's previous op
    // (included) to the op, a trailing one from the last op's moment.
    Circuit c(WireDims({3, 3, 2, 2}));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::H3(), {1});
    c.append(gates::X().controlled(3, 2), {1, 2});
    NoiseModel m;
    m.t1 = 1e-3;
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    const IdleStretches idle = idle_stretches(c, m);
    ASSERT_EQ(idle.moments.size(), 4u);
    EXPECT_EQ(idle.durations,
              (std::vector<Real>{100e-9, 300e-9, 100e-9, 300e-9}));
    const Real t01 = 0.0 + 100e-9 + 300e-9;
    EXPECT_EQ(idle.before[0], (std::vector<Real>{0.0}));
    EXPECT_EQ(idle.before[1], (std::vector<Real>{100e-9, 100e-9}));
    EXPECT_EQ(idle.before[2], (std::vector<Real>{300e-9}));
    EXPECT_EQ(idle.before[3], (std::vector<Real>{100e-9, t01 + 100e-9}));
    const Real all = t01 + 100e-9 + 300e-9;
    EXPECT_EQ(idle.trailing,
              (std::vector<Real>{300e-9 + 100e-9 + 300e-9, 300e-9, 300e-9,
                                 all}));
    // Without idle noise nothing is charged.
    m.t1 = 0;
    const IdleStretches none = idle_stretches(c, m);
    EXPECT_EQ(none.durations, std::vector<Real>(4, 0.0));
    EXPECT_EQ(none.before[3], (std::vector<Real>{0.0, 0.0}));
    EXPECT_EQ(none.trailing, std::vector<Real>(4, 0.0));
}

TEST(DensityMatrix, BothEnginesRejectNegativeMomentDurations) {
    // One rule: under damping or dephasing a negative duration is an
    // error in both engines, whichever idle channel would use it.
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    NoiseModel damping;
    damping.t1 = 1e-3;
    damping.dt_1q = -100e-9;
    damping.dt_2q = 300e-9;
    NoiseModel dephasing = damping;
    dephasing.t1 = 0;
    dephasing.dephasing_sigma = 1e3;
    for (const NoiseModel& m : {damping, dephasing}) {
        EXPECT_THROW(DensityCompilation(c, m), std::invalid_argument);
        EXPECT_THROW(TrajectoryCompilation(c, m), std::invalid_argument);
    }
    // Without idle noise the durations charge nothing.
    NoiseModel gates_only = damping;
    gates_only.t1 = 0;
    gates_only.p1 = 1e-3;
    EXPECT_NO_THROW(DensityCompilation(c, gates_only));
    EXPECT_NO_THROW(TrajectoryCompilation(c, gates_only));
}

/** A random circuit on four mixed-radix {2, 3} wires, one of which no op
 *  touches: one-, two- and three-qudit gates (the last draw one error
 *  site per adjacent operand pair). */
Circuit
random_idle_circuit(Rng& rng)
{
    std::vector<int> dims;
    for (int w = 0; w < 4; ++w) {
        dims.push_back(2 + static_cast<int>(rng.uniform_int(2)));
    }
    const int idle = static_cast<int>(rng.uniform_int(4));
    std::vector<int> used;
    for (int w = 0; w < 4; ++w) {
        if (w != idle) {
            used.push_back(w);
        }
    }
    Circuit c{WireDims(dims)};
    for (int g = 0; g < 12; ++g) {
        // Three distinct busy wires in random order.
        std::vector<int> w = used;
        for (int i = 2; i > 0; --i) {
            std::swap(w[static_cast<std::size_t>(i)],
                      w[static_cast<std::size_t>(rng.uniform_int(
                          static_cast<std::uint64_t>(i + 1)))]);
        }
        const int da = dims[static_cast<std::size_t>(w[0])];
        const int db = dims[static_cast<std::size_t>(w[1])];
        const int dc = dims[static_cast<std::size_t>(w[2])];
        switch (rng.uniform_int(5)) {
            case 0:
                c.append(gates::fourier(da), {w[0]});
                break;
            case 1:
                c.append(gates::Zd(da), {w[0]});
                break;
            case 2:
                c.append(gates::shift(db).controlled(da, da - 1),
                         {w[0], w[1]});
                break;
            case 3:
                c.append(gates::fourier(db).controlled(da, 1), {w[0], w[1]});
                break;
            default:
                c.append(gates::shift(dc).controlled({da, db}, {1, 1}),
                         {w[0], w[1], w[2]});
                break;
        }
    }
    return c;
}

/** The exact fidelity with Algorithm 1's idle noise charged moment by
 *  moment: each moment's gates, each followed by its gate errors, then
 *  every wire's damping and dephasing over the moment's duration. */
Real
per_moment_fidelity(const Circuit& c, const NoiseModel& m,
                    const StateVector& init)
{
    const WireDims& dims = c.dims();
    const auto sites = enumerate_error_sites(c, m);
    DensityMatrix dm(init);
    for (const Moment& moment : schedule_asap(c)) {
        for (const std::size_t i : moment.op_indices) {
            const Operation& op = c.ops()[i];
            dm.apply_unitary(op.gate.matrix(), op.wires);
            for (const ErrorSite& site : sites[i]) {
                dm.apply(compile_depolarizing(dims, site.wires,
                                              site.per_channel));
            }
        }
        const Real dt = m.moment_duration(moment.has_multi_qudit);
        for (int w = 0; w < dims.num_wires(); ++w) {
            if (m.has_damping()) {
                std::vector<Real> lambdas;
                for (int level = 1; level < dims.dim(w); ++level) {
                    lambdas.push_back(m.lambda(level, dt));
                }
                dm.apply(compile_damping(dims, w, lambdas));
            }
            if (m.has_dephasing()) {
                dm.apply(compile_dephasing(
                    dims, w, m.dephasing_sigma * std::sqrt(dt)));
            }
        }
    }
    return dm.fidelity(simulate(c, init));
}

TEST(DensityMatrix, StretchPlacementMatchesPerMomentReference) {
    // Damping and dephasing compose exactly over time and commute with
    // everything on other wires, so one channel per idle stretch equals
    // one per moment, fused or not, with and without gate errors.
    NoiseModel base;
    base.dt_1q = 100e-9;
    base.dt_2q = 300e-9;
    NoiseModel damping = base;
    damping.t1 = 2e-6;
    NoiseModel dephasing = base;
    dephasing.dephasing_sigma = 1e3;
    NoiseModel both = damping;
    both.dephasing_sigma = 1e3;
    exec::FusionOptions off;
    off.enabled = false;
    Rng rng(2026);
    for (int rep = 0; rep < 6; ++rep) {
        const Circuit c = random_idle_circuit(rng);
        const StateVector init = haar_random_state(c.dims(), rng);
        for (NoiseModel m : {damping, dephasing, both}) {
            for (const Real p : {0.0, 2e-3}) {
                m.p1 = p;
                m.p2 = p;
                const Real want = per_moment_fidelity(c, m, init);
                EXPECT_LT(want, 0.999);
                for (const exec::FusionOptions& fusion :
                     {exec::FusionOptions{}, off}) {
                    const DensityCompilation compiled(c, m, fusion);
                    EXPECT_NEAR(density_matrix_fidelity(compiled, init),
                                want, 1e-12)
                        << "rep " << rep << " p " << p << " fusion "
                        << fusion.enabled;
                }
            }
        }
    }
}

TEST(DensityMatrix, ZeroLengthMomentsFuseUnderIdleNoise) {
    // T1 with single-qudit moments of zero length: a run of single-qudit
    // gates ends no idle stretch, so it fuses between the stretch fences.
    // Moments: {H3(0), CX(1,2)} of 300 ns, then zero-length ones until
    // the CX(0,1) moment.
    Circuit c(WireDims({3, 3, 2}));
    c.append(gates::H3(), {0});
    c.append(gates::X().controlled(3, 1), {1, 2});
    c.append(gates::Z3(), {0});      // ends wire 0's 300-ns stretch
    c.append(gates::Xplus1(), {0});  // fuses with Z3
    c.append(gates::H3(), {1});      // ends wire 1's 300-ns stretch
    c.append(gates::X12(), {1});     // fuses with H3
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::H3(), {0});  // ends wire 0's 300-ns stretch
    c.append(gates::Z3(), {0});  // fuses with H3
    NoiseModel m;
    m.t1 = 2e-6;
    m.dt_1q = 0;
    m.dt_2q = 300e-9;
    exec::FusionOptions off;
    off.enabled = false;
    const DensityCompilation fused(c, m);
    const DensityCompilation unfused(c, m, off);
    EXPECT_LT(fused.gates().num_ops(), c.num_ops());
    EXPECT_EQ(unfused.gates().num_ops(), c.num_ops());
    Rng rng(311);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real want = density_matrix_fidelity(unfused, init);
    EXPECT_LT(want, 0.999);
    EXPECT_NEAR(density_matrix_fidelity(fused, init), want, 1e-10);
}

TEST(DensityMatrix, TrajectoryConvergesToCompiledExactDepolarizing) {
    // Trajectory-vs-exact convergence on a 2-qutrit depolarizing
    // circuit, with the exact side on the compiled path.
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::H3(), {1});
    NoiseModel m;
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    m.p1 = 3e-3;
    m.p2 = 2e-3;
    Rng rng(309);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 3000;
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(c, m, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.01);
}

TEST(DensityMatrix, TrajectoryMeanMatchesExactOnFigure11Cells) {
    // The 16 Figure 11 bars (gen-Toffoli construction x noise model) at
    // width 4, controls in |1>: the trajectory mean over 4,000 shots must
    // sit within 4 standard errors of the exact fidelity (4 rather than 3
    // so that 16 cells do not fail by chance on one seed in 25).
    using ctor::Method;
    std::vector<std::pair<Method, NoiseModel>> cells;
    for (const Method method : {Method::kQubitNoAncilla,
                                Method::kQubitDirtyAncilla,
                                Method::kQutrit}) {
        for (const NoiseModel& model : superconducting_models()) {
            cells.emplace_back(method, model);
        }
    }
    cells.emplace_back(Method::kQubitNoAncilla, ti_qubit());
    cells.emplace_back(Method::kQubitDirtyAncilla, ti_qubit());
    cells.emplace_back(Method::kQutrit, bare_qutrit());
    cells.emplace_back(Method::kQutrit, dressed_qutrit());
    ASSERT_EQ(cells.size(), 16u);
    const int shots = 4000;
    Rng rng(1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& [method, model] = cells[i];
        const ctor::GenToffoli g = ctor::build_gen_toffoli(method, 3);
        std::vector<int> digits(static_cast<std::size_t>(
                                    g.circuit.num_wires()),
                                0);
        for (const int w : g.controls) {
            digits[static_cast<std::size_t>(w)] = 1;
        }
        const StateVector init(g.circuit.dims(), digits);
        const StateVector ideal = simulate(g.circuit, init);
        const Real exact = density_matrix_fidelity(g.circuit, model, init);
        const TrajectoryCompilation compiled(g.circuit, model);
        Rng cell = rng.child(i);
        Real sum = 0;
        Real sum_sq = 0;
        for (int t = 0; t < shots; ++t) {
            Rng child = cell.child(static_cast<std::uint64_t>(t));
            const Real f = run_single_trajectory(compiled, init, ideal, child);
            sum += f;
            sum_sq += f * f;
        }
        const Real mean = sum / shots;
        const Real var = (sum_sq - shots * mean * mean) / (shots - 1);
        const Real se = std::sqrt(std::max<Real>(var, 0) / shots);
        EXPECT_NEAR(mean, exact, 4 * se + 1e-12)
            << g.label << "/" << model.name << ": se " << se;
    }
}

TEST(DensityMatrix, TrajectoryMeanMatchesExactAtWidthFive) {
    // The three Figure 11 constructions at width 5 from a Haar input on
    // the qubit subspace, under damping alone (the fused no-jump program,
    // with threshold crossings inside fused blocks) and under gate errors
    // alone (the ideal program, with presampled fires): the trajectory
    // mean over 4,000 shots within 4 standard errors of the exact value.
    using ctor::Method;
    NoiseModel damping = sc();
    damping.name = "damping";
    damping.p1 = 0;
    damping.p2 = 0;
    damping.t1 = 20e-6;
    NoiseModel gates_only = sc();
    gates_only.name = "gates";
    gates_only.p1 *= 10;
    gates_only.p2 *= 10;
    gates_only.t1 = 0;
    const int shots = 4000;
    Rng rng(5);
    std::uint64_t cell_id = 0;
    for (const Method method : {Method::kQubitNoAncilla,
                                Method::kQubitDirtyAncilla,
                                Method::kQutrit}) {
        const ctor::GenToffoli g = ctor::build_gen_toffoli(method, 4);
        for (const NoiseModel& model : {damping, gates_only}) {
            const StateVector init =
                haar_random_qubit_subspace_state(g.circuit.dims(), rng);
            const StateVector ideal = simulate(g.circuit, init);
            const Real exact =
                density_matrix_fidelity(g.circuit, model, init);
            const TrajectoryCompilation compiled(g.circuit, model);
            Rng cell = rng.child(cell_id++);
            Real sum = 0;
            std::vector<Real> f;
            for (int t = 0; t < shots; ++t) {
                Rng child = cell.child(static_cast<std::uint64_t>(t));
                f.push_back(
                    run_single_trajectory(compiled, init, ideal, child));
                sum += f.back();
            }
            const Real mean = sum / shots;
            Real sq = 0;
            for (const Real x : f) {
                sq += (x - mean) * (x - mean);
            }
            const Real se = std::sqrt(sq / (shots - 1) / shots);
            EXPECT_NEAR(mean, exact, 4 * se + 1e-12)
                << g.label << "/" << model.name << ": se " << se;
        }
    }
}

TEST(DensityMatrix, FusedFidelityMatchesUnfused) {
    // Gate errors on two-qutrit ops only: the density engine fuses the
    // single-qutrit runs between channels into one conjugation;
    // the exact fidelity must be unchanged (error channels fence the
    // partition, so placement is identical).
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::Z3(), {0});
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Z3(), {1});
    c.append(gates::X12(), {1});
    c.append(gates::Xminus1().controlled(3, 2), {1, 0});
    c.append(gates::H3(), {1});
    NoiseModel m;
    m.name = "2q-errors";
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    m.p2 = 4e-3;
    Rng rng(310);
    const StateVector init = haar_random_state(c.dims(), rng);
    exec::FusionOptions off;
    off.enabled = false;
    const Real fused = density_matrix_fidelity(c, m, init);
    const Real unfused = density_matrix_fidelity(c, m, init, off);
    EXPECT_NEAR(fused, unfused, 1e-10);
}

TEST(DensityMatrix, KernelsMatchStateConjugationAtParallelScale) {
    // 3^6 and 2^10 registers: sizes where the conjugation passes go
    // parallel under OpenMP (D = 729 is not a multiple of the transpose
    // tile, 1024 is a power of two). On a pure state, K rho K^dagger must
    // equal the outer product of K|psi> — checked for every kernel class.
    struct Case {
        Gate gate;
        std::vector<int> wires;
        KernelKind kind;
    };
    Rng rng(311);
    const WireDims q6 = WireDims::uniform(6, 3);
    const WireDims b10 = WireDims::uniform(10, 2);
    const std::vector<std::pair<WireDims, std::vector<Case>>> registers = {
        {q6,
         {
             {random_gate(q6, {1, 4}, rng), {1, 4}, KernelKind::kDense},
             {gates::Z3(), {2}, KernelKind::kDiagonal},
             {Gate("ZxX", {3, 3},
                   gates::Z3().matrix().kron(gates::Xplus1().matrix())),
              {0, 5},
              KernelKind::kMonomial},
             {gates::fourier(3).controlled(3, 2), {3, 1},
              KernelKind::kControlled},
             {gates::Xplus1().controlled(3, 1), {5, 0},
              KernelKind::kPermutation},
             {random_gate(q6, {3}, rng), {3}, KernelKind::kSingleWireD3},
         }},
        {b10,
         {
             {random_gate(b10, {7}, rng), {7}, KernelKind::kSingleWireD2},
             {gates::CNOT(), {2, 9}, KernelKind::kPermutation},
             {random_gate(b10, {0, 5}, rng), {0, 5}, KernelKind::kDense},
         }},
    };
    for (const auto& [dims, cases] : registers) {
        const StateVector psi0 = haar_random_state(dims, rng);
        for (const Case& tc : cases) {
            DensityMatrix dm(psi0);
            const exec::CompiledOp op = exec::compile_op(
                dims, tc.gate, tc.wires, &dm.plan_cache());
            ASSERT_EQ(op.kind, tc.kind) << tc.gate.name();
            dm.apply(op);
            StateVector psi = psi0;
            psi.apply(tc.gate.matrix(), tc.wires);
            // Spot-check the outer product (a full D^2 compare is slow).
            const Index D = dims.size();
            for (Index r = 0; r < D; r += 97) {
                for (Index col = 0; col < D; col += 89) {
                    EXPECT_NEAR(
                        std::abs(dm.rho()(static_cast<std::size_t>(r),
                                          static_cast<std::size_t>(col)) -
                                 psi[r] * std::conj(psi[col])),
                        0.0, 1e-10)
                        << tc.gate.name() << " at (" << r << ", " << col
                        << ")";
                }
            }
        }
    }
}

/** A small noisy circuit on `width` qutrits: every kernel class the
 *  engine meets on the Figure 11 circuits, in a few moments. */
Circuit
mixed_kernel_circuit(int width)
{
    Circuit c(WireDims::uniform(width, 3));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Z3(), {1});
    c.append(gates::H3().controlled(3, 2), {1, width - 1});
    c.append(gates::X12(), {width - 1});
    c.append(gates::Xminus1().controlled(3, 1), {width - 1, 2});
    c.append(gates::H3(), {2});
    return c;
}

TEST(DensityMatrix, FidelityBitwiseEqualAcrossThreadBudgets) {
    // 3^6: the conjugation passes go parallel, so the team size changes
    // with the budget; the blocks and tile rows are disjoint, so the
    // result must not change by a bit. Both step programs: fused between
    // gate errors (SC+GATES) and per op under idle noise (SC+T1+GATES).
    const Circuit c = mixed_kernel_circuit(6);
    Rng rng(316);
    const StateVector init = haar_random_state(c.dims(), rng);
    for (const NoiseModel& model : {sc_gates(), sc_t1_gates()}) {
        const DensityCompilation compiled(c, model);
        const Real one = density_matrix_fidelity(compiled, init, 1);
        EXPECT_GT(one, 0.5) << model.name;
        EXPECT_LT(one, 1.0) << model.name;
        for (const int threads : {2, 4}) {
            EXPECT_EQ(density_matrix_fidelity(compiled, init, threads), one)
                << model.name << " at " << threads << " threads";
        }
    }
}

TEST(DensityMatrix, SharedCompilationMatchesSerialAcrossThreads) {
    // The daemon's pattern: worker threads evaluate one cached compilation
    // at the same time, each with its own rho.
    const Circuit c = mixed_kernel_circuit(4);
    Rng rng(317);
    const StateVector init = haar_random_state(c.dims(), rng);
    for (const NoiseModel& model : {sc_gates(), sc_t1_gates()}) {
        const DensityCompilation compiled(c, model);
        const Real serial = density_matrix_fidelity(compiled, init, 1);
        Real got[2] = {0, 0};
        std::thread a(
            [&] { got[0] = density_matrix_fidelity(compiled, init, 1); });
        std::thread b(
            [&] { got[1] = density_matrix_fidelity(compiled, init, 1); });
        a.join();
        b.join();
        EXPECT_EQ(got[0], serial) << model.name;
        EXPECT_EQ(got[1], serial) << model.name;
    }
}

}  // namespace
}  // namespace qd::noise
