/**
 * Property tests for the compile-time fusion stage (exec/fusion.h):
 * partition invariants (nesting, fences, coverage), kernel-class algebra
 * (light fusions stay on cycle-walk kernels, nothing densifies), and
 * fused-vs-unfused execution equivalence on all engines — bitwise for
 * permutation-only circuits (their fusion is pure index composition) and
 * to tight tolerance for general mixed-radix circuits.
 */
#include "qdsim/exec/fusion.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "constructions/gen_toffoli.h"
#include "constructions/ternary_decomp.h"
#include "noise/density_matrix.h"
#include "noise/error_placement.h"
#include "noise/trajectory.h"
#include "qdsim/exec/batched_kernels.h"
#include "qdsim/exec/batched_state.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace qd {
namespace {

using exec::CompiledCircuit;
using exec::FusedGroup;
using exec::FusionOptions;
using exec::KernelKind;

Matrix
random_unitaryish(std::size_t n, Rng& rng)
{
    Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            m(r, c) = rng.complex_gaussian() * 0.5;
        }
    }
    return m;
}

/** Random circuit over `dims` mixing every gate family the fusion class
 *  algebra distinguishes (permutation, diagonal, monomial products,
 *  single-wire dense, controlled, two-wire dense). */
Circuit
random_circuit(const WireDims& dims, int n_ops, Rng& rng, bool perm_only)
{
    Circuit c(dims);
    for (int i = 0; i < n_ops; ++i) {
        const int w = static_cast<int>(
            rng.uniform_int(static_cast<std::size_t>(dims.num_wires())));
        const int d = dims.dim(w);
        const std::size_t pick = rng.uniform_int(perm_only ? 3 : 6);
        switch (pick) {
            case 0:
                c.append(gates::shift(d), {w});
                break;
            case 1:
                c.append(d == 2 ? gates::X() : gates::swap_levels(d, 0, 2),
                         {w});
                break;
            case 2: {
                // Controlled shift on a random other wire (permutation).
                const int v = (w + 1) % dims.num_wires();
                c.append(gates::shift(dims.dim(v)).controlled(d, d - 1),
                         {w, v});
                break;
            }
            case 3:
                c.append(gates::Zd(d), {w});
                break;
            case 4:
                c.append(gates::fourier(d), {w});
                break;
            default: {
                const int v = (w + 1) % dims.num_wires();
                c.append(gates::fourier(dims.dim(v)).controlled(d, 1),
                         {w, v});
                break;
            }
        }
    }
    return c;
}

/** Checks the structural invariants of a partition of `n_ops` operations:
 *  coverage (every op exactly once, ascending within groups), nesting
 *  (every member's wires lie inside the group wires), and fences (no
 *  group spans a fence boundary, and a fenced op closes its group). */
void
expect_valid_partition(const Circuit& circuit,
                       const std::vector<FusedGroup>& groups,
                       const std::vector<std::uint8_t>& fences)
{
    std::vector<int> seen(circuit.num_ops(), 0);
    for (const FusedGroup& g : groups) {
        ASSERT_FALSE(g.members.empty());
        for (std::size_t i = 0; i < g.members.size(); ++i) {
            const std::uint32_t m = g.members[i];
            ASSERT_LT(m, circuit.num_ops());
            ++seen[m];
            if (i > 0) {
                EXPECT_LT(g.members[i - 1], m) << "members out of order";
            }
            for (const int w : circuit.ops()[m].wires) {
                EXPECT_NE(std::find(g.wires.begin(), g.wires.end(), w),
                          g.wires.end())
                    << "member wire " << w << " outside group wires";
            }
            // A fenced op must close its group: nothing may follow it.
            if (!fences.empty() && fences[m] != 0) {
                EXPECT_EQ(i + 1, g.members.size())
                    << "fenced op " << m << " is not last in its group";
            }
        }
        // No group may span a fence boundary.
        if (!fences.empty()) {
            for (std::uint32_t f = g.members.front();
                 f < g.members.back(); ++f) {
                EXPECT_EQ(fences[f], 0)
                    << "group spans the fence after op " << f;
            }
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], 1) << "op " << i << " not covered exactly once";
    }
}

/** Runs `circuit` fused and unfused from the same random state, one
 *  state at a time; returns the max amplitude deviation. */
double
fused_unfused_deviation(const Circuit& circuit, const FusionOptions& options,
                        Rng& rng)
{
    const CompiledCircuit unfused(circuit);
    const CompiledCircuit fused(circuit, options);
    EXPECT_EQ(fused.num_source_ops(), circuit.num_ops());
    StateVector a = haar_random_state(circuit.dims(), rng);
    StateVector b = a;
    unfused.run(a);
    fused.run(b);
    double dev = 0;
    for (Index i = 0; i < a.size(); ++i) {
        dev = std::max(dev, std::abs(a[i] - b[i]));
    }
    return dev;
}

TEST(Fusion, PartitionInvariantsOnRandomMixedRadixCircuits) {
    Rng rng(401);
    const std::vector<std::vector<int>> registers = {
        {3, 3, 3}, {2, 3, 2}, {3, 2, 2, 3}, {2, 2, 2, 2}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        for (int rep = 0; rep < 4; ++rep) {
            const Circuit c = random_circuit(dims, 40, rng, false);
            std::vector<std::uint8_t> fences(c.num_ops(), 0);
            for (auto& f : fences) {
                f = rng.uniform() < 0.3 ? 1 : 0;
            }
            const auto groups =
                exec::fuse_sites(dims, c.ops(), fences, FusionOptions{});
            expect_valid_partition(c, groups, fences);
            const auto unfenced =
                exec::fuse_sites(dims, c.ops(), {}, FusionOptions{});
            expect_valid_partition(c, unfenced, {});
        }
    }
}

TEST(Fusion, FusedMatchesUnfusedOnRandomMixedRadixCircuits) {
    Rng rng(402);
    const std::vector<std::vector<int>> registers = {
        {3, 3, 3}, {2, 3, 2}, {3, 2, 2, 3}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        for (int rep = 0; rep < 4; ++rep) {
            const Circuit c = random_circuit(dims, 60, rng, false);
            EXPECT_LE(fused_unfused_deviation(c, FusionOptions{}, rng),
                      1e-12);
        }
    }
}

TEST(Fusion, PermutationOnlyCircuitsFuseBitwise) {
    // Permutation fusion composes index cycles — zero arithmetic — so
    // fused execution must be bitwise identical, not merely close.
    Rng rng(403);
    const WireDims dims({3, 3, 2, 3});
    for (int rep = 0; rep < 4; ++rep) {
        const Circuit c = random_circuit(dims, 50, rng, true);
        const CompiledCircuit unfused(c);
        const CompiledCircuit fused(c, FusionOptions{});
        EXPECT_LT(fused.num_ops(), unfused.num_ops())
            << "permutation runs should fuse";
        for (const auto& op : fused.ops()) {
            EXPECT_EQ(op.kind, KernelKind::kPermutation);
        }
        StateVector a = haar_random_state(dims, rng);
        StateVector b = a;
        unfused.run(a);
        fused.run(b);
        for (Index i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].real(), b[i].real()) << "index " << i;
            ASSERT_EQ(a[i].imag(), b[i].imag()) << "index " << i;
        }
    }
}

TEST(Fusion, BatchedLanesBitwiseMatchSingleShotUnderFusion) {
    // The lane-equivalence property must survive fusion: a batched pass
    // over a FUSED compilation leaves every lane bitwise identical to the
    // one-lane fused run of that lane.
    Rng rng(404);
    const WireDims dims({3, 2, 3});
    const Circuit c = random_circuit(dims, 40, rng, false);
    const CompiledCircuit fused(c, FusionOptions{});
    const int lanes = 5;
    exec::BatchedStateVector batch(dims, lanes);
    std::vector<StateVector> ref;
    for (int b = 0; b < lanes; ++b) {
        ref.push_back(haar_random_state(dims, rng));
        batch.set_lane(b, ref.back());
    }
    exec::BatchedScratch bscratch;
    exec::run_batched(fused, batch, bscratch);
    exec::BatchedScratch scratch;
    StateVector got(dims);
    for (int b = 0; b < lanes; ++b) {
        fused.run(ref[static_cast<std::size_t>(b)], scratch);
        batch.extract_lane(b, got);
        const StateVector& want = ref[static_cast<std::size_t>(b)];
        for (Index i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].real(), want[i].real())
                << "lane " << b << " index " << i;
            ASSERT_EQ(got[i].imag(), want[i].imag())
                << "lane " << b << " index " << i;
        }
    }
}

TEST(Fusion, KernelClassAlgebraKeepsFastPaths) {
    const WireDims dims({2, 2, 2});
    // diagonal ∘ diagonal → one diagonal op.
    {
        Circuit c(dims);
        c.append(gates::T(), {0});
        c.append(gates::S(), {0});
        c.append(gates::CZ(), {0, 1});
        const CompiledCircuit fused(c, FusionOptions{});
        ASSERT_EQ(fused.num_ops(), 1u);
        EXPECT_EQ(fused.ops()[0].kind, KernelKind::kDiagonal);
    }
    // permutation ∘ permutation → one permutation op.
    {
        Circuit c(dims);
        c.append(gates::X(), {1});
        c.append(gates::CNOT(), {0, 1});
        const CompiledCircuit fused(c, FusionOptions{});
        ASSERT_EQ(fused.num_ops(), 1u);
        EXPECT_EQ(fused.ops()[0].kind, KernelKind::kPermutation);
    }
    // phase ∘ permutation → monomial (generalized permutation).
    {
        Circuit c(dims);
        c.append(gates::CNOT(), {0, 1});
        c.append(gates::T(), {1});
        const CompiledCircuit fused(c, FusionOptions{});
        ASSERT_EQ(fused.num_ops(), 1u);
        EXPECT_EQ(fused.ops()[0].kind, KernelKind::kMonomial);
    }
    // Single-wire runs collapse onto the unrolled kernel whatever the
    // member classes.
    {
        Circuit c(dims);
        c.append(gates::H(), {2});
        c.append(gates::T(), {2});
        c.append(gates::H(), {2});
        const CompiledCircuit fused(c, FusionOptions{});
        ASSERT_EQ(fused.num_ops(), 1u);
        EXPECT_EQ(fused.ops()[0].kind, KernelKind::kSingleWireD2);
    }
    // controlled ∘ controlled with the SAME signature stays controlled
    // (controlled-T/-S are diagonal, hence light — use two genuinely
    // controlled-dense gates)...
    {
        Circuit c(dims);
        c.append(gates::H().controlled(2, 1), {0, 1});
        c.append(gates::Xpow(0.5).controlled(2, 1), {0, 1});
        const CompiledCircuit fused(c, FusionOptions{});
        ASSERT_EQ(fused.num_ops(), 1u);
        EXPECT_EQ(fused.ops()[0].kind, KernelKind::kControlled);
    }
    // ... but different control values must NOT merge (densification).
    {
        Circuit c(dims);
        c.append(gates::H().controlled(2, 1), {0, 1});
        c.append(gates::H().controlled(2, 0), {0, 1});
        const CompiledCircuit fused(c, FusionOptions{});
        EXPECT_EQ(fused.num_ops(), 2u);
    }
    // An unconditional factor must not densify a controlled gate either:
    // the unfused pair (cheap subspace pass + cheap small pass) beats one
    // dense block.
    {
        Circuit c(dims);
        c.append(gates::H().controlled(2, 1), {0, 1});
        c.append(gates::T(), {1});
        const CompiledCircuit fused(c, FusionOptions{});
        EXPECT_EQ(fused.num_ops(), 2u);
        for (const auto& op : fused.ops()) {
            EXPECT_NE(op.kind, KernelKind::kDense);
        }
    }
}

TEST(Fusion, DependencyAdjacencySlidesPastDisjointOps) {
    // T(0) ... X(2) ... CNOT(1,0): the X on wire 2 commutes with both, so
    // T and CNOT still fuse across it. cost_model off pins the stage-1
    // partition (stage 2 would go on to union-merge the two groups).
    const WireDims dims({2, 2, 2});
    Circuit c(dims);
    c.append(gates::T(), {0});
    c.append(gates::X(), {2});
    c.append(gates::CNOT(), {1, 0});
    FusionOptions stage1;
    stage1.cost_model = false;
    const auto groups = exec::fuse_sites(dims, c.ops(), {}, stage1);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].members, (std::vector<std::uint32_t>{0, 2}));
    EXPECT_EQ(groups[1].members, (std::vector<std::uint32_t>{1}));
}

TEST(Fusion, ExistingDenseBlocksAbsorbNestedOps) {
    Rng rng(405);
    const WireDims dims({3, 3, 3});
    Circuit c(dims);
    c.append(Gate("rand", {3, 3}, random_unitaryish(9, rng)), {0, 1});
    c.append(gates::X01(), {1});
    const CompiledCircuit fused(c, FusionOptions{});
    ASSERT_EQ(fused.num_ops(), 1u);
    EXPECT_EQ(fused.ops()[0].kind, KernelKind::kDense);
    EXPECT_LE(fused_unfused_deviation(c, FusionOptions{}, rng), 1e-12);
}

TEST(Fusion, CostCapBoundsEveryMultiWireMerge) {
    // The cap bounds the block of every multi-wire merge — a merged
    // group pays O(block^3) matrix-product compile cost per member
    // whatever its runtime kernel, so neither dense growth nor riding
    // along in an over-cap block is allowed.
    Rng rng(406);
    const WireDims dims({3, 3, 3});
    Circuit c(dims);
    c.append(gates::X01(), {1});
    c.append(Gate("rand", {3, 3}, random_unitaryish(9, rng)), {0, 1});
    c.append(gates::X01(), {1});
    FusionOptions capped;
    capped.max_block = 8;  // below the 9-entry two-qutrit block
    const CompiledCircuit blocked(c, capped);
    EXPECT_EQ(blocked.num_ops(), 3u);
    const CompiledCircuit fused(c, FusionOptions{});
    EXPECT_EQ(fused.num_ops(), 1u);
}

TEST(Fusion, NestedLightChainsStayCompileBounded) {
    // Regression: multi-controlled permutations are permutations (light
    // class), so an uncapped nested chain X(0); CX(0,1); CCX(0,1,2); ...
    // used to fuse toward one full-register block whose fused_matrix
    // product is O(D^3) per member — seconds at 12 qubits, intractable
    // at 16. The cap must bound every merged group's block instead.
    const int n = 10;
    const WireDims dims = WireDims::uniform(n, 2);
    Circuit c(dims);
    c.append(gates::X(), {0});
    for (int w = 1; w < n; ++w) {
        std::vector<int> wires(static_cast<std::size_t>(w + 1));
        std::iota(wires.begin(), wires.end(), 0);
        c.append(gates::X().controlled(std::vector<int>(wires.size() - 1, 2),
                                       std::vector<int>(wires.size() - 1, 1)),
                 wires);
    }
    const FusionOptions options;
    const CompiledCircuit fused(c, options);  // must return promptly
    for (const auto& op : fused.ops()) {
        if (op.source_ops.size() > 1) {
            EXPECT_LE(op.gate.block_size(), options.max_block);
        }
    }
    EXPECT_EQ(fused.num_source_ops(), c.num_ops());
}

TEST(Fusion, EmbedIntoBlockMatchesDirectApplication) {
    Rng rng(407);
    const WireDims dims({3, 2, 3});
    const std::vector<std::vector<int>> group_wires = {{0, 1}, {2, 0}};
    const std::vector<std::vector<int>> op_wires = {{1}, {0, 2}};
    for (std::size_t k = 0; k < group_wires.size(); ++k) {
        std::size_t block = 1;
        std::vector<int> gdims;
        for (const int w : op_wires[k]) {
            gdims.push_back(dims.dim(w));
            block *= static_cast<std::size_t>(dims.dim(w));
        }
        const Matrix m = random_unitaryish(block, rng);
        const Matrix embedded =
            exec::embed_into_block(dims, group_wires[k], op_wires[k], m);
        StateVector a = haar_random_state(dims, rng);
        StateVector b = a;
        a.apply(m, op_wires[k]);
        b.apply(embedded, group_wires[k]);
        for (Index i = 0; i < a.size(); ++i) {
            EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12)
                << "case " << k << " index " << i;
        }
    }
}

TEST(Fusion, DisabledFusionMatchesPlainCompilationBitwise) {
    Rng rng(408);
    const WireDims dims({3, 2, 3});
    const Circuit c = random_circuit(dims, 30, rng, false);
    FusionOptions off;
    off.enabled = false;
    const CompiledCircuit plain(c);
    const CompiledCircuit disabled(c, off);
    ASSERT_EQ(plain.num_ops(), disabled.num_ops());
    StateVector a = haar_random_state(dims, rng);
    StateVector b = a;
    plain.run(a);
    disabled.run(b);
    for (Index i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].real(), b[i].real());
        ASSERT_EQ(a[i].imag(), b[i].imag());
    }
}

TEST(Fusion, PlanCacheSaltSeparatesFusionCapVariants) {
    // Regression: fused-group plans are cached under the fusion cap as
    // salt. A shared cache serving compilations with different caps (the
    // cap is runtime-toggleable) must never alias their plan variants,
    // and salted entries must not shadow the plain (salt-0) geometry.
    const WireDims dims({3, 3, 3});
    exec::PlanCache cache(dims);
    const std::vector<int> wires = {0, 2};
    const auto plain = cache.get(wires);
    const auto cap9 = cache.get(wires, 9);
    const auto cap27 = cache.get(wires, 27);
    EXPECT_NE(plain, cap9);
    EXPECT_NE(cap9, cap27);
    // Same key → same shared tables.
    EXPECT_EQ(cache.get(wires, 9), cap9);
    EXPECT_EQ(cache.get(wires), plain);
    // put() under one salt must not leak into another.
    const WireDims dims2({3, 3, 3});
    exec::PlanCache cache2(dims2);
    cache2.put(wires, cap9, 9);
    EXPECT_EQ(cache2.get(wires, 9), cap9);
    EXPECT_NE(cache2.get(wires, 27), cap9);
    EXPECT_NE(cache2.get(wires), cap9);
}

TEST(Fusion, SharedCacheAcrossDifferentCapsStaysCorrect) {
    // Toggling the fusion cap at runtime against one shared PlanCache
    // must keep every compilation correct (regression for stale-plan
    // aliasing across fusion settings).
    Rng rng(409);
    const WireDims dims({3, 3, 3});
    const Circuit c = random_circuit(dims, 40, rng, false);
    exec::PlanCache cache(dims);
    FusionOptions a;  // default cap
    FusionOptions b;
    b.max_block = 3;
    const CompiledCircuit fa(c, a, {}, &cache);
    const CompiledCircuit fb(c, b, {}, &cache);
    const CompiledCircuit plain(c);
    StateVector ra = haar_random_state(dims, rng);
    StateVector rb = ra, rp = ra;
    fa.run(ra);
    fb.run(rb);
    plain.run(rp);
    for (Index i = 0; i < rp.size(); ++i) {
        EXPECT_NEAR(std::abs(ra[i] - rp[i]), 0.0, 1e-12);
        EXPECT_NEAR(std::abs(rb[i] - rp[i]), 0.0, 1e-12);
    }
}

/** Estimated per-pass cost (exec::estimate_block_cost totals) of running
 *  the whole partition fuse_sites produces under `options`. */
std::uint64_t
estimated_partition_cost(const Circuit& c, const FusionOptions& options)
{
    const WireDims& dims = c.dims();
    const auto groups = exec::fuse_sites(dims, c.ops(), {}, options);
    std::uint64_t total = 0;
    for (const auto& g : groups) {
        if (g.members.size() == 1) {
            const Operation& op = c.ops()[g.members[0]];
            total += exec::estimate_block_cost(dims, op.wires, op.gate,
                                               dims.size());
        } else {
            std::vector<int> gd;
            for (const int w : g.wires) {
                gd.push_back(dims.dim(w));
            }
            const Gate probe("probe", std::move(gd),
                             exec::fused_matrix(dims, c.ops(), g));
            total += exec::estimate_block_cost(dims, g.wires, probe,
                                               dims.size());
        }
    }
    return total;
}

TEST(Fusion, OverlappingCcuRunsFuseToSingleLightBlocks) {
    // The decomposed qutrit gen-Toffoli node (the paper's Fig. 3 tree
    // building block) is a run of two-qutrit gates on overlapping pairs
    // ({b,t};{a,b};{b,t};...), so stage 1 cannot merge any of it. The
    // stage-2 look-ahead must collapse each seven-gate run into a single
    // 27-block — and since the product is a doubly-controlled X+1 (a
    // permutation), the union lands on the cheapest kernel of all, even
    // though every proper prefix of the run is dense and inadmissible.
    const auto tree = ctor::build_gen_toffoli(ctor::Method::kQutrit, 4);
    const Circuit& c = tree.circuit;
    const CompiledCircuit unfused(c);
    const CompiledCircuit fused(c, FusionOptions{});
    EXPECT_LT(fused.num_ops(), unfused.num_ops());
    bool ccu_union = false;
    for (const auto& op : fused.ops()) {
        if (op.source_ops.size() >= ctor::kTwoQuditGatesPerCC &&
            op.kind == KernelKind::kPermutation) {
            ccu_union = true;
        }
    }
    EXPECT_TRUE(ccu_union)
        << "no decomposed CCU run fused onto the permutation kernel";
    Rng rng(501);
    EXPECT_LE(fused_unfused_deviation(c, FusionOptions{}, rng), 1e-12);
}

TEST(Fusion, DenseTargetCcuRunFusesToControlledBlock) {
    // A decomposed CC-U run with a DENSE target (the Fourier gate): the
    // product is a doubly-controlled U, so the union must land on the
    // controlled-subspace kernel — which requires the look-ahead to
    // reorder the union wires control-first (the controls arrive in the
    // middle of the operand order as the window grows).
    const WireDims dims = WireDims::uniform(3, 3);
    Circuit c(dims);
    ctor::append_cc_u(c, ctor::on1(0), ctor::on1(1), 2, gates::fourier(3),
                      true);
    ASSERT_EQ(c.num_ops(),
              static_cast<std::size_t>(ctor::kTwoQuditGatesPerCC));
    const CompiledCircuit fused(c, FusionOptions{});
    ASSERT_EQ(fused.num_ops(), 1u);
    EXPECT_EQ(fused.ops()[0].kind, KernelKind::kControlled);
    EXPECT_EQ(fused.ops()[0].source_ops.size(),
              static_cast<std::size_t>(ctor::kTwoQuditGatesPerCC));
    Rng rng(507);
    EXPECT_LE(fused_unfused_deviation(c, FusionOptions{}, rng), 1e-12);
}

TEST(Fusion, OverlappingPermutationUnionStaysBitwise) {
    // Two controlled shifts on overlapping pairs: the union of the two
    // permutations is still a permutation (kLight), the model accepts
    // (one pass instead of two), and — permutations move amplitudes
    // without arithmetic — fused execution stays bitwise identical.
    const WireDims dims({3, 3, 3});
    Circuit c(dims);
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Xplus1().controlled(3, 2), {1, 2});
    const auto groups =
        exec::fuse_sites(dims, c.ops(), {}, FusionOptions{});
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].members,
              (std::vector<std::uint32_t>{0, 1}));
    const CompiledCircuit unfused(c);
    const CompiledCircuit fused(c, FusionOptions{});
    ASSERT_EQ(fused.num_ops(), 1u);
    EXPECT_EQ(fused.ops()[0].kind, KernelKind::kPermutation);
    Rng rng(502);
    StateVector a = haar_random_state(dims, rng);
    StateVector b = a;
    unfused.run(a);
    fused.run(b);
    for (Index i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].real(), b[i].real()) << "index " << i;
        ASSERT_EQ(a[i].imag(), b[i].imag()) << "index " << i;
    }
}

TEST(Fusion, OverlapFusionMatchesOnDensityEngine) {
    // Random mixed-radix circuits (naturally overlapping operand pairs)
    // through the density-matrix engine: union fusion on the conjugation
    // path must agree with stage-1-only and fully-unfused compilations.
    Rng rng(503);
    const WireDims dims({3, 2, 3});
    const Circuit c = random_circuit(dims, 25, rng, false);
    noise::NoiseModel m;
    m.name = "test";
    m.p1 = 2e-3;
    m.p2 = 4e-3;
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    const StateVector init = haar_random_state(dims, rng);
    FusionOptions stage1;
    stage1.cost_model = false;
    FusionOptions off;
    off.enabled = false;
    const Real full =
        noise::density_matrix_fidelity(c, m, init, FusionOptions{});
    const Real s1 = noise::density_matrix_fidelity(c, m, init, stage1);
    const Real ref = noise::density_matrix_fidelity(c, m, init, off);
    EXPECT_NEAR(full, ref, 1e-10);
    EXPECT_NEAR(s1, ref, 1e-10);
}

TEST(Fusion, OverlapFusionPreservesTrajectoryPerTrialFidelities) {
    // Single-qutrit error carriers (fences) separated by runs of
    // overlapping two-qutrit gates: the noisy compilation union-merges
    // the runs while every error channel stays pinned to its pre-fusion
    // boundary, so the fused engine consumes the identical RNG stream
    // and per-trial fidelities match the unfused engine to float
    // reassociation.
    const WireDims dims({3, 3, 3});
    Circuit c(dims);
    for (int rep = 0; rep < 3; ++rep) {
        c.append(gates::fourier(3), {rep % 3});  // 1q: draws the error
        c.append(gates::Xplus1().controlled(3, 1), {0, 1});
        c.append(gates::Xplus1().controlled(3, 2), {1, 2});
        c.append(gates::fourier(3).controlled(3, 1), {2, 0});
    }
    noise::NoiseModel m;
    m.name = "test";
    m.p1 = 5e-3;
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    // The engine's own fence construction must still fuse the 2q runs.
    const CompiledCircuit noisy(
        c, FusionOptions{},
        noise::error_fences(noise::enumerate_error_sites(c, m)));
    ASSERT_LT(noisy.num_ops(), c.num_ops());
    noise::TrajectoryOptions fused;
    fused.trials = 40;
    fused.seed = 7;
    fused.keep_per_trial = true;
    noise::TrajectoryOptions unfused = fused;
    unfused.fusion.enabled = false;
    const auto a = noise::run_noisy_trials(c, m, fused);
    const auto b = noise::run_noisy_trials(c, m, unfused);
    ASSERT_EQ(a.per_trial.size(), b.per_trial.size());
    for (std::size_t t = 0; t < a.per_trial.size(); ++t) {
        EXPECT_NEAR(a.per_trial[t], b.per_trial[t], 1e-9) << "trial " << t;
    }
}

TEST(Fusion, CostModelNeverIncreasesEstimatedCost) {
    // The model only accepts a union whose estimated pass cost is within
    // cost_ratio of the summed parts, so at any ratio <= 1 the stage-2
    // partition can never cost more than the stage-1 one, and raising
    // the acceptance threshold toward 1 never increases the total.
    Rng rng(504);
    const std::vector<std::vector<int>> registers = {
        {3, 3, 3}, {2, 3, 2}, {3, 2, 2, 3}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        for (int rep = 0; rep < 3; ++rep) {
            const Circuit c = random_circuit(dims, 40, rng, false);
            FusionOptions off;
            off.cost_model = false;
            const std::uint64_t base = estimated_partition_cost(c, off);
            std::uint64_t prev = base;
            for (const double ratio : {0.25, 0.5, 1.0}) {
                FusionOptions on;
                on.cost_ratio = ratio;
                const std::uint64_t cost = estimated_partition_cost(c, on);
                EXPECT_LE(cost, base) << "ratio " << ratio;
                EXPECT_LE(cost, prev) << "ratio " << ratio;
                prev = cost;
            }
        }
    }
    // The decomposed tree node shows a strict win.
    const auto tree = ctor::build_gen_toffoli(ctor::Method::kQutrit, 2);
    FusionOptions off;
    off.cost_model = false;
    EXPECT_LT(estimated_partition_cost(tree.circuit, FusionOptions{}),
              estimated_partition_cost(tree.circuit, off));
}

TEST(Fusion, PlanSaltSeparatesEveryOptionField) {
    // Regression for the PlanCache salt contract: every FusionOptions
    // field folds into plan_salt(), so toggling ANY knob at runtime on a
    // shared cache yields a distinct salt (no plan-variant aliasing).
    std::vector<FusionOptions> variants(8);
    variants[1].enabled = false;
    variants[2].max_block = 9;
    variants[3].cost_model = false;
    variants[4].cost_ratio = 0.5;
    variants[5].max_block_light = 81;
    variants[6].max_block_controlled = 9;
    variants[7].max_block_dense = 9;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        for (std::size_t j = i + 1; j < variants.size(); ++j) {
            EXPECT_NE(variants[i].plan_salt(), variants[j].plan_salt())
                << "variants " << i << " and " << j << " alias";
        }
    }
    EXPECT_EQ(FusionOptions{}.plan_salt(), FusionOptions{}.plan_salt());
    EXPECT_NE(FusionOptions{}.plan_salt(), 0u)
        << "default salt must not collide with the unfused salt 0";
}

TEST(Fusion, SharedCacheAcrossCostModelVariantsStaysCorrect) {
    // Toggling the stage-2 knobs at runtime against one shared PlanCache
    // must keep every compilation correct (stale-plan aliasing
    // regression for the new option fields).
    Rng rng(505);
    const WireDims dims({3, 3, 3});
    const Circuit c = random_circuit(dims, 40, rng, false);
    exec::PlanCache cache(dims);
    FusionOptions a;  // cost model on, defaults
    FusionOptions b;
    b.cost_model = false;
    FusionOptions d;
    d.cost_ratio = 2.0;
    d.max_block_light = 81;
    const CompiledCircuit fa(c, a, {}, &cache);
    const CompiledCircuit fb(c, b, {}, &cache);
    const CompiledCircuit fd(c, d, {}, &cache);
    const CompiledCircuit plain(c);
    StateVector ra = haar_random_state(dims, rng);
    StateVector rb = ra, rd = ra, rp = ra;
    fa.run(ra);
    fb.run(rb);
    fd.run(rd);
    plain.run(rp);
    for (Index i = 0; i < rp.size(); ++i) {
        EXPECT_NEAR(std::abs(ra[i] - rp[i]), 0.0, 1e-12);
        EXPECT_NEAR(std::abs(rb[i] - rp[i]), 0.0, 1e-12);
        EXPECT_NEAR(std::abs(rd[i] - rp[i]), 0.0, 1e-12);
    }
}

TEST(Fusion, UnionPartitionsRespectFences) {
    // Random fences over circuits whose stage-1 groups union-merge: the
    // stage-2 window must never span a fence, and the merged partition
    // keeps every structural invariant.
    Rng rng(506);
    const WireDims dims({3, 3, 3});
    for (int rep = 0; rep < 6; ++rep) {
        const Circuit c = random_circuit(dims, 40, rng, false);
        std::vector<std::uint8_t> fences(c.num_ops(), 0);
        for (auto& f : fences) {
            f = rng.uniform() < 0.2 ? 1 : 0;
        }
        const auto groups =
            exec::fuse_sites(dims, c.ops(), fences, FusionOptions{});
        expect_valid_partition(c, groups, fences);
    }
    // Deterministic: a fence in the middle of a decomposed CCU run must
    // split the union merge.
    const auto tree = ctor::build_gen_toffoli(ctor::Method::kQutrit, 2);
    std::vector<std::uint8_t> fences(tree.circuit.num_ops(), 0);
    fences[tree.circuit.num_ops() / 2] = 1;
    const auto groups = exec::fuse_sites(tree.circuit.dims(),
                                         tree.circuit.ops(), fences,
                                         FusionOptions{});
    expect_valid_partition(tree.circuit, groups, fences);
    ASSERT_GE(groups.size(), 2u);
}

TEST(Fusion, PerClassCapsGateTheirOwnClasses) {
    // max_block_light below the union block forbids the permutation
    // union; inheriting (0) allows it. The dense cap does not gate a
    // light merge.
    const WireDims dims({3, 3, 3});
    Circuit c(dims);
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Xplus1().controlled(3, 2), {1, 2});
    FusionOptions tight;
    tight.max_block_light = 9;  // union needs 27
    EXPECT_EQ(exec::fuse_sites(dims, c.ops(), {}, tight).size(), 2u);
    FusionOptions dense_tight;
    dense_tight.max_block_dense = 9;
    EXPECT_EQ(exec::fuse_sites(dims, c.ops(), {}, dense_tight).size(), 1u);
    FusionOptions wide;
    wide.max_block = 9;
    wide.max_block_light = 27;  // light class may exceed the global cap
    EXPECT_EQ(exec::fuse_sites(dims, c.ops(), {}, wide).size(), 1u);
}

TEST(Fusion, MonomialKernelMatchesReference) {
    // Two-wire generalized permutation (phase ⊗ cycle product): routed to
    // the monomial kernel and identical to the generic reference.
    Rng rng(410);
    const WireDims dims({3, 3, 3});
    const Matrix zx = gates::Z3().matrix().kron(gates::Xplus1().matrix());
    const Gate g("Z3xX+1", std::vector<int>{3, 3}, zx);
    const std::vector<int> wires = {0, 2};
    const exec::CompiledOp op = exec::compile_op(dims, g, wires);
    ASSERT_EQ(op.kind, KernelKind::kMonomial);
    StateVector a = haar_random_state(dims, rng);
    StateVector b = a;
    exec::BatchedScratch scratch;
    exec::apply_op(op, a, scratch);
    b.apply(zx, wires);
    for (Index i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12) << "index " << i;
    }
}

}  // namespace
}  // namespace qd
