/**
 * Property tests for the batched execution engine: every batched kernel
 * must leave each lane BITWISE identical to the single-shot path run on
 * that lane's state, and every per-lane primitive must compute a lane
 * from that lane alone — those exact equivalences are what let the
 * trajectory engine mix batched passes with per-lane single-shot replays
 * and stay reproducible regardless of batch width.
 */
#include "qdsim/exec/batched_kernels.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#include "qdsim/exec/batched_state.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace qd {
namespace {

using exec::BatchedScratch;
using exec::BatchedStateVector;
using exec::CompiledOp;
using exec::KernelKind;

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

/** Fills a batch with independent Haar-random lanes and returns the lane
 *  states for the single-shot reference runs. */
std::vector<StateVector>
random_lanes(BatchedStateVector& batch, Rng& rng)
{
    std::vector<StateVector> lanes;
    for (int b = 0; b < batch.lanes(); ++b) {
        lanes.push_back(haar_random_state(batch.dims(), rng));
        batch.set_lane(b, lanes.back());
    }
    return lanes;
}

/** EXPECT every lane of `batch` to be bitwise equal to `lanes[b]`. */
void
expect_lanes_bitwise_equal(const BatchedStateVector& batch,
                           const std::vector<StateVector>& lanes,
                           const char* what)
{
    StateVector got(batch.dims());
    for (int b = 0; b < batch.lanes(); ++b) {
        batch.extract_lane(b, got);
        const StateVector& want = lanes[static_cast<std::size_t>(b)];
        for (Index i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].real(), want[i].real())
                << what << ": lane " << b << " index " << i;
            ASSERT_EQ(got[i].imag(), want[i].imag())
                << what << ": lane " << b << " index " << i;
        }
    }
}

/** Applies `gate` batched and single-shot per lane; expects bitwise lane
 *  equality and (optionally) a specific kernel routing. */
void
check_batched_matches_single(const WireDims& dims, const Gate& gate,
                             const std::vector<int>& wires, int lanes,
                             Rng& rng,
                             std::optional<KernelKind> expect_kind = {})
{
    const CompiledOp op = exec::compile_op(dims, gate, wires);
    if (expect_kind.has_value()) {
        ASSERT_EQ(op.kind, *expect_kind) << gate.name();
    }
    BatchedStateVector batch(dims, lanes);
    std::vector<StateVector> ref = random_lanes(batch, rng);

    BatchedScratch bscratch;
    exec::apply_op_batched(op, batch, bscratch);

    exec::ExecScratch scratch;
    for (StateVector& r : ref) {
        exec::apply_op(op, r, scratch);
    }
    expect_lanes_bitwise_equal(batch, ref, exec::kernel_name(op.kind));
}

TEST(Batched, EveryKernelKindMatchesSingleShotBitwise) {
    Rng rng(301);
    const WireDims q3 = WireDims::uniform(4, 3);
    // Permutation, diagonal, unrolled d3, controlled, dense.
    check_batched_matches_single(q3, gates::Xplus1().controlled(3, 2),
                                 {1, 3}, 5, rng, KernelKind::kPermutation);
    check_batched_matches_single(q3, gates::Z3(), {2}, 5, rng,
                                 KernelKind::kDiagonal);
    // Monomial: generalized permutation with phases (Z ⊗ X+1 product,
    // the shape of X^j Z^k error terms and phase∘permutation fusions).
    check_batched_matches_single(
        q3,
        Gate("Z3xX+1", {3, 3},
             gates::Z3().matrix().kron(gates::Xplus1().matrix())),
        {1, 3}, 5, rng, KernelKind::kMonomial);
    check_batched_matches_single(q3, gates::H3(), {1}, 5, rng,
                                 KernelKind::kSingleWireD3);
    check_batched_matches_single(q3, gates::fourier(3).controlled(3, 2),
                                 {0, 2}, 5, rng, KernelKind::kControlled);
    check_batched_matches_single(
        q3, Gate("rand", {3, 3}, random_matrix(9, rng)), {3, 1}, 5, rng,
        KernelKind::kDense);

    const WireDims q2 = WireDims::uniform(3, 2);
    check_batched_matches_single(q2, gates::H(), {1}, 4, rng,
                                 KernelKind::kSingleWireD2);
    check_batched_matches_single(q2, gates::CCX(), {2, 0, 1}, 4, rng,
                                 KernelKind::kPermutation);

    // The layouts the kernels walk differently: controlled ops with one 2-
    // or 3-level target (unrolled) and a 4-level one (generic), and block
    // bases in runs of several (the lowest operand above the least
    // significant wire) or of one (an operand on it).
    const WireDims mixed({3, 2, 3, 3, 2, 3});
    const Gate u2("u2", {2}, random_matrix(2, rng));
    const Gate zx("Z3xX+1", {3, 3},
                  gates::Z3().matrix().kron(gates::Xplus1().matrix()));
    struct Case {
        WireDims dims;
        Gate gate;
        std::vector<int> wires;
        KernelKind kind;
    };
    const std::vector<Case> cases = {
        {mixed, u2.controlled(2, 1), {1, 4}, KernelKind::kControlled},
        {mixed, u2.controlled(3, 2), {3, 1}, KernelKind::kControlled},
        {mixed, u2.controlled(3, 2), {5, 4}, KernelKind::kControlled},
        {mixed, gates::fourier(3).controlled(3, 1).controlled(2, 1),
         {1, 3, 2}, KernelKind::kControlled},
        {mixed, gates::fourier(3).controlled(3, 2).controlled(3, 0),
         {0, 2, 5}, KernelKind::kControlled},
        {WireDims({3, 4, 2, 3}),
         Gate("u4", {4}, random_matrix(4, rng)).controlled(3, 1), {0, 1},
         KernelKind::kControlled},
        {mixed, gates::Z3(), {5}, KernelKind::kDiagonal},
        {mixed, gates::Z3(), {2}, KernelKind::kDiagonal},
        {mixed, gates::Z3(), {0}, KernelKind::kDiagonal},
        {mixed, zx, {3, 5}, KernelKind::kMonomial},
        {mixed, zx, {2, 3}, KernelKind::kMonomial},
        {mixed, zx, {2, 0}, KernelKind::kMonomial},
        {mixed, gates::Xplus1().controlled(3, 2), {0, 3},
         KernelKind::kPermutation},
    };
    for (const Case& c : cases) {
        for (const int lanes : {1, 2, 3, 8}) {
            check_batched_matches_single(c.dims, c.gate, c.wires, lanes, rng,
                                         c.kind);
        }
    }

    // 3^9 amplitudes x 8 lanes: past the OpenMP threshold, so the run walk
    // splits its runs across a team.
    const WireDims big = WireDims::uniform(9, 3);
    check_batched_matches_single(big, gates::Z3(), {4}, 8, rng,
                                 KernelKind::kDiagonal);
    check_batched_matches_single(big, zx, {6, 3}, 8, rng,
                                 KernelKind::kMonomial);
    check_batched_matches_single(big, gates::fourier(3).controlled(3, 2),
                                 {1, 5}, 8, rng, KernelKind::kControlled);
    check_batched_matches_single(big, gates::Xplus1().controlled(3, 1),
                                 {2, 7}, 8, rng, KernelKind::kPermutation);
}

TEST(Batched, RandomCircuitsMatchSingleShotOnMixedRadix) {
    Rng rng(302);
    const std::vector<std::vector<int>> registers = {
        {3, 3, 3}, {2, 3, 2}, {3, 2, 2, 3}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        // A circuit mixing every kernel shape, including non-unitary
        // (Kraus-like) dense operators.
        Circuit c(dims);
        for (int w = 0; w < dims.num_wires(); ++w) {
            c.append(dims.dim(w) == 3 ? gates::H3() : gates::H(), {w});
        }
        c.append(Gate("k", {dims.dim(0)},
                      random_matrix(static_cast<std::size_t>(dims.dim(0)),
                                    rng)),
                 {0});
        c.append(
            Gate("d2", {dims.dim(1), dims.dim(2)},
                 random_matrix(static_cast<std::size_t>(dims.dim(1)) *
                                   static_cast<std::size_t>(dims.dim(2)),
                               rng)),
            {1, 2});
        c.append((dims.dim(1) == 3 ? gates::Xplus1() : gates::X())
                     .controlled(dims.dim(0), 1),
                 {0, 1});

        const exec::CompiledCircuit compiled(c);
        for (const int lanes : {1, 2, 3, 8}) {
            BatchedStateVector batch(dims, lanes);
            std::vector<StateVector> ref = random_lanes(batch, rng);
            BatchedScratch bscratch;
            exec::run_batched(compiled, batch, bscratch);
            exec::ExecScratch scratch;
            for (StateVector& r : ref) {
                compiled.run(r, scratch);
            }
            expect_lanes_bitwise_equal(batch, ref, "random circuit");
        }
    }
}

/** Per-lane random unit-modulus factors, factors[lane][wire][level]. */
std::vector<std::vector<std::vector<Complex>>>
random_kick(const WireDims& dims, int lanes, Rng& rng)
{
    std::vector<std::vector<std::vector<Complex>>> factors(
        static_cast<std::size_t>(lanes));
    for (auto& lf : factors) {
        lf.resize(static_cast<std::size_t>(dims.num_wires()));
        for (int w = 0; w < dims.num_wires(); ++w) {
            for (int m = 0; m < dims.dim(w); ++m) {
                lf[static_cast<std::size_t>(w)].push_back(
                    std::polar(1.0, rng.uniform() * 6.28));
            }
        }
    }
    return factors;
}

/** Per-lane product diagonal (the dephasing shape) on `batch`: each lane
 *  equals the same kick run as a one-lane batch, bitwise, and the product
 *  of its factors up to rounding. `ref` is updated to the expected lanes. */
void
check_kick_is_lane_local(BatchedStateVector& batch,
                         std::vector<StateVector>& ref, Rng& rng)
{
    const WireDims& dims = batch.dims();
    const auto factors = random_kick(dims, batch.lanes(), rng);
    batch.apply_product_diag_lanes(factors);
    for (int b = 0; b < batch.lanes(); ++b) {
        const auto& lane_factors = factors[static_cast<std::size_t>(b)];
        StateVector& r = ref[static_cast<std::size_t>(b)];
        const StateVector before = r;
        BatchedStateVector one(dims, 1);
        one.set_lane(0, r);
        one.apply_product_diag_lanes({lane_factors});
        one.extract_lane(0, r);
        for (Index i = 0; i < dims.size(); ++i) {
            Complex f(1, 0);
            const std::vector<int> digits = dims.unpack(i);
            for (int w = 0; w < dims.num_wires(); ++w) {
                f *= lane_factors[static_cast<std::size_t>(w)]
                                 [static_cast<std::size_t>(
                                     digits[static_cast<std::size_t>(w)])];
            }
            ASSERT_NEAR(std::abs(r[i] - before[i] * f), 0.0, 1e-12);
        }
    }
    expect_lanes_bitwise_equal(batch, ref, "product diag");
}

TEST(Batched, PerLanePrimitivesAreLaneLocal) {
    Rng rng(303);
    // The kick on a one-wire register (no low wire group) and on a
    // register with a d = 4 wire, beside the mixed-radix one below.
    for (const WireDims& kick_dims : {WireDims({3}), WireDims({2, 4, 3})}) {
        for (const int lanes : {1, 2, 3, 8}) {
            BatchedStateVector kicked(kick_dims, lanes);
            std::vector<StateVector> kick_ref = random_lanes(kicked, rng);
            check_kick_is_lane_local(kicked, kick_ref, rng);
        }
    }

    const WireDims dims({3, 2, 3});
    const int lanes = 6;
    BatchedStateVector batch(dims, lanes);
    std::vector<StateVector> ref = random_lanes(batch, rng);
    check_kick_is_lane_local(batch, ref, rng);

    // norm_sq_lane == norm_sq_lanes, bitwise, and the lane's norm.
    const auto norms = batch.norm_sq_lanes();
    for (int b = 0; b < lanes; ++b) {
        ASSERT_EQ(batch.norm_sq_lane(b), norms[static_cast<std::size_t>(b)]);
        const Real n = ref[static_cast<std::size_t>(b)].norm();
        ASSERT_NEAR(norms[static_cast<std::size_t>(b)], n * n, 1e-12);
    }

    // fidelity_lanes == per-lane fidelity.
    BatchedStateVector other(dims, lanes);
    std::vector<StateVector> oref = random_lanes(other, rng);
    const auto fid = batch.fidelity_lanes(other);
    for (int b = 0; b < lanes; ++b) {
        ASSERT_EQ(fid[static_cast<std::size_t>(b)],
                  ref[static_cast<std::size_t>(b)].fidelity(
                      oref[static_cast<std::size_t>(b)]));
    }
}

TEST(Batched, ExtractInsertRoundTripAndValidation) {
    Rng rng(304);
    const WireDims dims({2, 3});
    BatchedStateVector batch(dims, 3);
    const StateVector s = haar_random_state(dims, rng);
    batch.set_lane(2, s);
    StateVector out(dims);
    batch.extract_lane(2, out);
    EXPECT_EQ(out.fidelity(s), 1.0);
    EXPECT_THROW(BatchedStateVector(dims, 0), std::invalid_argument);
    StateVector wrong(WireDims({3, 3}));
    EXPECT_THROW(batch.set_lane(0, wrong), std::invalid_argument);
    EXPECT_THROW(batch.extract_lane(0, wrong), std::invalid_argument);

    // The kick checks every lane's factor shape before touching a lane.
    auto factors = random_kick(dims, 3, rng);
    factors.pop_back();
    EXPECT_THROW(batch.apply_product_diag_lanes(factors),
                 std::invalid_argument);
    factors = random_kick(dims, 3, rng);
    factors[1].pop_back();
    EXPECT_THROW(batch.apply_product_diag_lanes(factors),
                 std::invalid_argument);
    factors = random_kick(dims, 3, rng);
    factors[2][1].pop_back();  // wire 1 has 3 levels; lane 2 gives 2
    EXPECT_THROW(batch.apply_product_diag_lanes(factors),
                 std::invalid_argument);
    factors = random_kick(dims, 3, rng);
    factors[0][0].push_back(Complex(1, 0));
    EXPECT_THROW(batch.apply_product_diag_lanes(factors),
                 std::invalid_argument);
    batch.extract_lane(2, out);
    EXPECT_EQ(out.fidelity(s), 1.0);
}

}  // namespace
}  // namespace qd
