/**
 * Property tests for the lane kernels, the one kernel set. Lane
 * invariance: every kernel must leave lane b of a B-lane pass BITWISE
 * identical to the one-lane pass (exec::apply_op, CompiledCircuit::run)
 * on that lane's state, and every per-lane primitive must compute a lane
 * from that lane alone — that is what lets the trajectory engine replay
 * one lane between batched passes and stay reproducible regardless of
 * batch width. Each kernel layout is also checked against
 * StateVector::apply, the dense reference. The BatchedIsa cases run the
 * same layouts through the baseline and the AVX2 build of the lane
 * kernels directly and require the same bits from both.
 */
#include "qdsim/exec/batched_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "qdsim/exec/batched_state.h"
#include "qdsim/exec/lane_kernels.h"
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
 *  states for the one-lane reference runs. */
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

/** Applies `gate` to a batch of `lanes` lanes and to each lane alone as a
 *  one-lane pass; expects the kernel routing `kind`, bitwise lane
 *  equality, and each lane within 1e-10 of StateVector::apply. */
void
check_lane_invariant(const WireDims& dims, const Gate& gate,
                     const std::vector<int>& wires, int lanes, Rng& rng,
                     KernelKind kind)
{
    const CompiledOp op = exec::compile_op(dims, gate, wires);
    ASSERT_EQ(op.kind, kind) << gate.name();
    BatchedStateVector batch(dims, lanes);
    std::vector<StateVector> one_lane = random_lanes(batch, rng);
    std::vector<StateVector> dense = one_lane;

    BatchedScratch scratch;
    exec::apply_op_batched(op, batch, scratch);
    for (StateVector& r : one_lane) {
        exec::apply_op(op, r, scratch);
    }
    expect_lanes_bitwise_equal(batch, one_lane, exec::kernel_name(kind));

    for (std::size_t b = 0; b < dense.size(); ++b) {
        dense[b].apply(gate.matrix(), wires);
        for (Index i = 0; i < dims.size(); ++i) {
            ASSERT_NEAR(std::abs(one_lane[b][i] - dense[b][i]), 0.0, 1e-10)
                << exec::kernel_name(kind) << ": lane " << b << " index "
                << i;
        }
    }
}

/** Calls check(dims, gate, wires, lanes, kind) on every layout the lane
 *  kernels walk differently, drawing random gates from `rng` in a fixed
 *  order. */
template <class Check>
void
for_each_kernel_layout(Rng& rng, Check&& check)
{
    const WireDims q3 = WireDims::uniform(4, 3);
    // Permutation, diagonal, unrolled d3, controlled, dense.
    check(q3, gates::Xplus1().controlled(3, 2), {1, 3}, 5,
          KernelKind::kPermutation);
    check(q3, gates::Z3(), {2}, 5, KernelKind::kDiagonal);
    // Monomial: generalized permutation with phases (Z ⊗ X+1 product,
    // the shape of X^j Z^k error terms and phase∘permutation fusions).
    check(q3,
          Gate("Z3xX+1", {3, 3},
               gates::Z3().matrix().kron(gates::Xplus1().matrix())),
          {1, 3}, 5, KernelKind::kMonomial);
    check(q3, gates::H3(), {1}, 5, KernelKind::kSingleWireD3);
    check(q3, gates::fourier(3).controlled(3, 2), {0, 2}, 5,
          KernelKind::kControlled);
    check(q3, Gate("rand", {3, 3}, random_matrix(9, rng)), {3, 1}, 5,
          KernelKind::kDense);

    const WireDims q2 = WireDims::uniform(3, 2);
    check(q2, gates::H(), {1}, 4, KernelKind::kSingleWireD2);
    check(q2, gates::CCX(), {2, 0, 1}, 4, KernelKind::kPermutation);

    // The layouts the kernels walk differently: controlled ops with one 2-
    // or 3-level target (unrolled) and a 4-level one (generic), and block
    // bases in runs of several (the lowest operand above the least
    // significant wire) or of one (an operand on it).
    const WireDims mixed({3, 2, 3, 3, 2, 3});
    const Gate u2("u2", {2}, random_matrix(2, rng));
    const Gate zx("Z3xX+1", {3, 3},
                  gates::Z3().matrix().kron(gates::Xplus1().matrix()));
    const Matrix k0_2 = Matrix::diagonal({Complex(1, 0), Complex(0.8, 0)});
    const Matrix k0_3 = Matrix::diagonal(
        {Complex(1, 0), Complex(0.9, 0), Complex(0.7, 0)});
    const Matrix ch3 = gates::H3().controlled(3, 2).matrix();
    const Gate damped_h3("C[2]H3.k0", {3, 3},
                         ch3 * Matrix::identity(3).kron(k0_3));
    const Gate shifted_h3(
        "C[2]H3.X+1", {3, 3},
        ch3 * gates::Xplus1().matrix().kron(Matrix::identity(3)));
    const Gate damped_u2("C[1]u2.k0", {3, 2},
                         u2.controlled(3, 1).matrix() *
                             Matrix::identity(3).kron(k0_2));
    // Controls on wires 0 and 3 around a qubit target on wire 1: the
    // target is the middle operand.
    const std::vector<int> middle = {0, 1, 3};
    const std::vector<int> ctrl_first = {0, 3, 1};
    const Gate damped_middle(
        "C[2]C[1]u2.k0", {3, 2, 3},
        exec::embed_into_block(
            mixed, middle, ctrl_first,
            u2.controlled(3, 1).controlled(3, 2).matrix()) *
            Matrix::identity(3).kron(k0_2).kron(Matrix::identity(3)));
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
        // Block-monomial: controlled blocks with a damping-like diagonal
        // (identity pi) or a level shift (pi != id) folded in, a 2- or
        // 3-level target, and the target first, last or in the middle.
        {mixed, damped_h3, {0, 2}, KernelKind::kBlockMonomial},
        {mixed, damped_h3, {3, 5}, KernelKind::kBlockMonomial},
        {mixed, shifted_h3, {3, 0}, KernelKind::kBlockMonomial},
        {mixed, shifted_h3, {2, 5}, KernelKind::kBlockMonomial},
        {mixed, damped_u2, {2, 4}, KernelKind::kBlockMonomial},
        {mixed, damped_u2, {5, 1}, KernelKind::kBlockMonomial},
        {mixed, damped_middle, {0, 1, 3}, KernelKind::kBlockMonomial},
    };
    for (const Case& c : cases) {
        for (const int lanes : {1, 2, 3, 8}) {
            check(c.dims, c.gate, c.wires, lanes, c.kind);
        }
    }

    // 3^9 amplitudes x 8 lanes: past the OpenMP threshold, so the run walk
    // splits its runs across a team.
    const WireDims big = WireDims::uniform(9, 3);
    check(big, gates::Z3(), {4}, 8, KernelKind::kDiagonal);
    check(big, zx, {6, 3}, 8, KernelKind::kMonomial);
    check(big, gates::fourier(3).controlled(3, 2), {1, 5}, 8,
          KernelKind::kControlled);
    check(big, gates::Xplus1().controlled(3, 1), {2, 7}, 8,
          KernelKind::kPermutation);
    check(big, shifted_h3, {7, 2}, 8, KernelKind::kBlockMonomial);
}

TEST(Batched, EveryKernelLayoutIsLaneInvariantBitwise) {
    Rng rng(301);
    for_each_kernel_layout(rng, [&](const WireDims& dims, const Gate& gate,
                                    const std::vector<int>& wires, int lanes,
                                    KernelKind kind) {
        check_lane_invariant(dims, gate, wires, lanes, rng, kind);
    });
}

/** The mixed-radix registers of the random-circuit checks. */
std::vector<WireDims>
mixed_radix_registers()
{
    return {WireDims({3, 3, 3}), WireDims({2, 3, 2}), WireDims({3, 2, 2, 3})};
}

/** A circuit on `dims` mixing every kernel shape, including non-unitary
 *  (Kraus-like) dense operators. */
Circuit
random_mixed_circuit(const WireDims& dims, Rng& rng)
{
    Circuit c(dims);
    for (int w = 0; w < dims.num_wires(); ++w) {
        c.append(dims.dim(w) == 3 ? gates::H3() : gates::H(), {w});
    }
    c.append(Gate("k", {dims.dim(0)},
                  random_matrix(static_cast<std::size_t>(dims.dim(0)), rng)),
             {0});
    c.append(Gate("d2", {dims.dim(1), dims.dim(2)},
                  random_matrix(static_cast<std::size_t>(dims.dim(1)) *
                                    static_cast<std::size_t>(dims.dim(2)),
                                rng)),
             {1, 2});
    c.append((dims.dim(1) == 3 ? gates::Xplus1() : gates::X())
                 .controlled(dims.dim(0), 1),
             {0, 1});
    return c;
}

TEST(Batched, RandomCircuitsAreLaneInvariantOnMixedRadix) {
    // Lane b of a B-lane run equals CompiledCircuit::run on that lane.
    Rng rng(302);
    for (const WireDims& dims : mixed_radix_registers()) {
        const exec::CompiledCircuit compiled(random_mixed_circuit(dims, rng));
        for (const int lanes : {1, 2, 3, 8}) {
            BatchedStateVector batch(dims, lanes);
            std::vector<StateVector> one_lane = random_lanes(batch, rng);
            BatchedScratch scratch;
            exec::run_batched(compiled, batch, scratch);
            for (StateVector& r : one_lane) {
                compiled.run(r, scratch);
            }
            expect_lanes_bitwise_equal(batch, one_lane, "random circuit");
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

/** EXPECT two batches to hold the same bits in every amplitude. */
void
expect_batches_bitwise_equal(const BatchedStateVector& got,
                             const BatchedStateVector& want, const char* what)
{
    ASSERT_EQ(got.lanes(), want.lanes()) << what;
    ASSERT_EQ(got.size(), want.size()) << what;
    const std::size_t n = static_cast<std::size_t>(got.size()) *
                          static_cast<std::size_t>(got.lanes());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::memcmp(&got.data()[i], &want.data()[i],
                              sizeof(Complex)),
                  0)
            << what << ": lane " << i % static_cast<std::size_t>(got.lanes())
            << " index " << i / static_cast<std::size_t>(got.lanes());
    }
}

TEST(Batched, ApplyRejectsOpsCompiledForAnotherRegister) {
    // A diagonal compiled on a larger register would write past the lanes,
    // one from a smaller register would scale the wrong amplitudes.
    Rng rng(305);
    const WireDims dims = WireDims::uniform(3, 3);
    for (const WireDims& other :
         {WireDims::uniform(4, 3), WireDims::uniform(2, 3)}) {
        const CompiledOp op =
            exec::compile_op(other, gates::Z3(), std::vector<int>{1});
        BatchedStateVector batch(dims, 2);
        random_lanes(batch, rng);
        const BatchedStateVector before = batch;
        BatchedScratch scratch;
        EXPECT_THROW(exec::apply_op_batched(op, batch, scratch),
                     std::invalid_argument);
        expect_batches_bitwise_equal(batch, before, "rejected op");
    }
}

/** The AVX2 build when this process can run it, else null. */
const exec::LaneKernels*
runnable_avx2_build()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) {
        return exec::avx2_lane_kernels();
    }
#endif
    return nullptr;
}

TEST(BatchedIsa, DispatcherPicksAvx2ExactlyWhenBuiltAndSupported) {
    const exec::LaneKernels& baseline = exec::baseline::kLaneKernels;
    EXPECT_STREQ(baseline.isa, "baseline");
    if (const exec::LaneKernels* avx2 = exec::avx2_lane_kernels()) {
        EXPECT_STREQ(avx2->isa, "avx2");
    }
    const exec::LaneKernels* avx2 = runnable_avx2_build();
    EXPECT_EQ(&exec::lane_kernels(), avx2 != nullptr ? avx2 : &baseline);
    EXPECT_STREQ(exec::kernel_isa(), avx2 != nullptr ? "avx2" : "baseline");
}

/** Runs every op of `ops` over a copy of `batch` through each build and
 *  expects the same bits from both. */
void
expect_builds_agree(const exec::LaneKernels& avx2,
                    const std::vector<CompiledOp>& ops,
                    const BatchedStateVector& batch, const char* what)
{
    BatchedStateVector base = batch;
    BatchedStateVector wide = batch;
    BatchedScratch base_scratch, wide_scratch;
    const std::size_t lanes = static_cast<std::size_t>(batch.lanes());
    for (const CompiledOp& op : ops) {
        exec::baseline::kLaneKernels.apply_op(op, base.data(), lanes,
                                              base_scratch);
        avx2.apply_op(op, wide.data(), lanes, wide_scratch);
    }
    expect_batches_bitwise_equal(wide, base, what);
}

TEST(BatchedIsa, EveryKernelLayoutMatchesBaselineBitwise) {
    const exec::LaneKernels* avx2 = runnable_avx2_build();
    if (avx2 == nullptr) {
        GTEST_SKIP() << "no AVX2 build of the lane kernels, or no AVX2 CPU";
    }
    Rng rng(306);
    for_each_kernel_layout(rng, [&](const WireDims& dims, const Gate& gate,
                                    const std::vector<int>& wires, int lanes,
                                    KernelKind kind) {
        const CompiledOp op = exec::compile_op(dims, gate, wires);
        ASSERT_EQ(op.kind, kind) << gate.name();
        BatchedStateVector batch(dims, lanes);
        random_lanes(batch, rng);
        expect_builds_agree(*avx2, {op}, batch, exec::kernel_name(kind));
    });
}

TEST(BatchedIsa, RandomCircuitsMatchBaselineBitwise) {
    const exec::LaneKernels* avx2 = runnable_avx2_build();
    if (avx2 == nullptr) {
        GTEST_SKIP() << "no AVX2 build of the lane kernels, or no AVX2 CPU";
    }
    Rng rng(307);
    for (const WireDims& dims : mixed_radix_registers()) {
        const exec::CompiledCircuit compiled(random_mixed_circuit(dims, rng));
        for (const int lanes : {1, 2, 3, 8}) {
            BatchedStateVector batch(dims, lanes);
            random_lanes(batch, rng);
            expect_builds_agree(*avx2, compiled.ops(), batch,
                                "random circuit");
        }
    }
}

TEST(BatchedIsa, LaneLoopsMatchBaselineBitwise) {
    const exec::LaneKernels* avx2 = runnable_avx2_build();
    if (avx2 == nullptr) {
        GTEST_SKIP() << "no AVX2 build of the lane kernels, or no AVX2 CPU";
    }
    const exec::LaneKernels& base = exec::baseline::kLaneKernels;
    Rng rng(308);
    // Lane counts around the norm loop's tiles of four and the fidelity
    // loop's pairs, on a one-wire, a mixed-radix and a 3^7 register.
    for (const WireDims& dims :
         {WireDims({3}), WireDims({2, 4, 3}), WireDims::uniform(7, 3)}) {
        for (const int lanes : {1, 2, 3, 4, 5, 8, 11}) {
            const std::size_t B = static_cast<std::size_t>(lanes);
            const std::size_t n = static_cast<std::size_t>(dims.size());
            BatchedStateVector a(dims, lanes), o(dims, lanes);
            random_lanes(a, rng);
            random_lanes(o, rng);

            std::vector<Real> want(B), got(B);
            auto expect_same_bits = [&](const char* what) {
                EXPECT_EQ(
                    std::memcmp(got.data(), want.data(), B * sizeof(Real)), 0)
                    << what << ", lanes " << lanes;
            };
            for (std::size_t b = 0; b < B; ++b) {
                want[b] = base.norm_sq_lane(a.data(), n, B, b);
                got[b] = avx2->norm_sq_lane(a.data(), n, B, b);
            }
            expect_same_bits("norm_sq_lane");
            base.norm_sq_lanes(a.data(), n, B, want.data());
            avx2->norm_sq_lanes(a.data(), n, B, got.data());
            expect_same_bits("norm_sq_lanes");
            base.fidelity_lanes(a.data(), o.data(), n, B, want.data());
            avx2->fidelity_lanes(a.data(), o.data(), n, B, got.data());
            expect_same_bits("fidelity_lanes");

            // The kick's pass over per-lane unit-modulus tables, split as
            // the member splits: the last wire is the low group.
            const std::size_t nlo = static_cast<std::size_t>(
                dims.dim(dims.num_wires() - 1));
            const std::size_t nhi = n / nlo;
            std::vector<Complex> hi(nhi * B), lo(nlo * B);
            for (Complex& f : hi) {
                f = std::polar(1.0, rng.uniform() * 6.28);
            }
            for (Complex& f : lo) {
                f = std::polar(1.0, rng.uniform() * 6.28);
            }
            BatchedStateVector base_kick = a, wide_kick = a;
            base.product_diag_lanes(base_kick.data(), hi.data(), nhi,
                                    lo.data(), nlo, B);
            avx2->product_diag_lanes(wide_kick.data(), hi.data(), nhi,
                                     lo.data(), nlo, B);
            expect_batches_bitwise_equal(wide_kick, base_kick,
                                         "product_diag_lanes");
        }
    }
}

}  // namespace
}  // namespace qd
