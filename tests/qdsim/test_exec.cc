/**
 * Property tests for the compiled execution engine: every specialized
 * kernel, run on one state through exec::apply_op (a one-lane pass of the
 * lane kernels), must match the generic reference implementation
 * (StateVector::apply) on random mixed-radix states and random operators,
 * including the non-unitary Kraus operators the noise engine applies.
 */
#include "qdsim/exec/compiled_circuit.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "qdsim/exec/apply_plan.h"
#include "qdsim/exec/kernels.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace qd {
namespace {

using exec::CompiledOp;
using exec::KernelKind;

/** Random dense (generally non-unitary) matrix — a stand-in for both gate
 *  unitaries and Kraus operators. */
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

/** Random distinct wires of the register. */
std::vector<int>
random_wires(const WireDims& dims, int k, Rng& rng)
{
    std::vector<int> all(static_cast<std::size_t>(dims.num_wires()));
    std::iota(all.begin(), all.end(), 0);
    std::shuffle(all.begin(), all.end(), rng.engine());
    all.resize(static_cast<std::size_t>(k));
    return all;
}

/** Applies `gate` to copies of a random state via the compiled kernel and
 *  the reference path, expecting identical results; returns the kernel
 *  kind the dispatcher chose. */
KernelKind
check_against_reference(const WireDims& dims, const Gate& gate,
                        const std::vector<int>& wires, Rng& rng)
{
    StateVector a = haar_random_state(dims, rng);
    StateVector b = a;

    const CompiledOp op = exec::compile_op(dims, gate, wires);
    exec::BatchedScratch scratch;
    exec::apply_op(op, a, scratch);

    b.apply(gate.matrix(), wires);

    for (Index i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-10)
            << "kernel " << exec::kernel_name(op.kind) << " gate "
            << gate.name() << " index " << i;
    }
    return op.kind;
}

TEST(Exec, DenseKernelMatchesReferenceOnRandomOperators) {
    Rng rng(101);
    const std::vector<std::vector<int>> registers = {
        {2, 2, 2}, {3, 3, 3}, {2, 3, 2, 3}, {3, 2, 2, 3, 2}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        for (int k = 1; k <= 3 && k <= dims.num_wires(); ++k) {
            for (int rep = 0; rep < 3; ++rep) {
                const auto wires = random_wires(dims, k, rng);
                std::vector<int> gdims;
                std::size_t block = 1;
                for (const int w : wires) {
                    gdims.push_back(dims.dim(w));
                    block *= static_cast<std::size_t>(dims.dim(w));
                }
                const Gate g("rand", gdims, random_matrix(block, rng));
                check_against_reference(dims, g, wires, rng);
            }
        }
    }
}

TEST(Exec, PermutationKernelMatchesReference) {
    Rng rng(102);
    const WireDims q3 = WireDims::uniform(4, 3);
    EXPECT_EQ(check_against_reference(q3, gates::Xplus1(), {2}, rng),
              KernelKind::kPermutation);
    EXPECT_EQ(check_against_reference(q3, gates::X01(), {0}, rng),
              KernelKind::kPermutation);
    EXPECT_EQ(check_against_reference(
                  q3, gates::Xplus1().controlled(3, 2), {1, 3}, rng),
              KernelKind::kPermutation);

    const WireDims q2 = WireDims::uniform(4, 2);
    EXPECT_EQ(check_against_reference(q2, gates::X(), {1}, rng),
              KernelKind::kPermutation);
    EXPECT_EQ(check_against_reference(q2, gates::CNOT(), {3, 1}, rng),
              KernelKind::kPermutation);
    EXPECT_EQ(check_against_reference(q2, gates::CCX(), {2, 0, 3}, rng),
              KernelKind::kPermutation);
}

TEST(Exec, DiagonalKernelMatchesReference) {
    Rng rng(103);
    const WireDims dims({3, 2, 3, 2});
    EXPECT_EQ(check_against_reference(dims, gates::Z3(), {2}, rng),
              KernelKind::kDiagonal);
    EXPECT_EQ(check_against_reference(dims, gates::T(), {1}, rng),
              KernelKind::kDiagonal);
    EXPECT_EQ(check_against_reference(dims, gates::CZ(), {1, 3}, rng),
              KernelKind::kDiagonal);
    // Random (non-unitary) diagonal of arity 2 over mixed radix — the
    // shape of the fused no-jump damping operator.
    std::vector<Complex> entries;
    for (int i = 0; i < 6; ++i) {
        entries.push_back(rng.complex_gaussian());
    }
    const Gate diag("rand_diag", {3, 2}, Matrix::diagonal(entries));
    EXPECT_EQ(check_against_reference(dims, diag, {2, 1}, rng),
              KernelKind::kDiagonal);
}

TEST(Exec, SingleWireUnrolledKernelsMatchReference) {
    Rng rng(104);
    const WireDims dims({2, 3, 2, 3});
    EXPECT_EQ(check_against_reference(dims, gates::H(), {0}, rng),
              KernelKind::kSingleWireD2);
    EXPECT_EQ(check_against_reference(dims, gates::H(), {2}, rng),
              KernelKind::kSingleWireD2);
    EXPECT_EQ(check_against_reference(dims, gates::H3(), {1}, rng),
              KernelKind::kSingleWireD3);
    EXPECT_EQ(check_against_reference(dims, gates::fourier(3), {3}, rng),
              KernelKind::kSingleWireD3);
    // Random non-unitary 2x2 / 3x3 (Kraus-shaped) operators.
    const Gate k2("kraus2", {2}, random_matrix(2, rng));
    EXPECT_EQ(check_against_reference(dims, k2, {2}, rng),
              KernelKind::kSingleWireD2);
    const Gate k3("kraus3", {3}, random_matrix(3, rng));
    EXPECT_EQ(check_against_reference(dims, k3, {3}, rng),
              KernelKind::kSingleWireD3);
}

TEST(Exec, ControlledKernelMatchesReference) {
    Rng rng(105);
    const WireDims dims = WireDims::uniform(4, 3);
    const Gate ch = gates::H3().controlled(3, 2);
    EXPECT_TRUE(ch.has_controlled_structure());
    EXPECT_EQ(check_against_reference(dims, ch, {0, 2}, rng),
              KernelKind::kControlled);
    // Two |2>-controls, the paper's ternary Toffoli shape with a dense
    // inner operator.
    const Gate cch = gates::fourier(3).controlled({3, 3}, {2, 1});
    EXPECT_EQ(check_against_reference(dims, cch, {3, 1, 0}, rng),
              KernelKind::kControlled);

    const WireDims mixed({2, 3, 2});
    const Gate mh = gates::H().controlled(3, 1);
    EXPECT_EQ(check_against_reference(mixed, mh, {1, 2}, rng),
              KernelKind::kControlled);
}

TEST(Exec, AmplitudeDampingKrausOperatorsMatchReference) {
    Rng rng(106);
    const WireDims dims = WireDims::uniform(3, 3);
    // Jump operator |0><2| (not a permutation: column 0 is empty).
    Matrix jump(3, 3);
    jump(0, 2) = Complex(1, 0);
    const Gate kj("K2", {3}, jump);
    EXPECT_EQ(check_against_reference(dims, kj, {1}, rng),
              KernelKind::kSingleWireD3);
    // No-jump operator diag(1, sqrt(1-l1), sqrt(1-l2)): non-unitary
    // diagonal.
    const Gate k0("K0", {3},
                  Matrix::diagonal({Complex(1, 0),
                                    Complex(std::sqrt(0.9), 0),
                                    Complex(std::sqrt(0.7), 0)}));
    EXPECT_EQ(check_against_reference(dims, k0, {2}, rng),
              KernelKind::kDiagonal);
}

TEST(Exec, CompiledCircuitMatchesOpByOpReference) {
    Rng rng(107);
    const WireDims dims({3, 2, 3, 3});
    Circuit c(dims);
    c.append(gates::H(), {1});
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(2, 1), {1, 2});
    c.append(gates::Z3(), {3});
    c.append(gates::H3().controlled(3, 2), {2, 3});
    c.append(gates::Xplus1(), {0});
    c.append(Gate("rand", {3, 3}, random_matrix(9, rng)), {3, 0});
    c.append(gates::X01(), {2});

    StateVector a = haar_random_state(dims, rng);
    StateVector b = a;
    const exec::CompiledCircuit compiled(c);
    compiled.run(a);
    for (const Operation& op : c.ops()) {
        b.apply(op.gate.matrix(), op.wires);
    }
    for (Index i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-10) << i;
    }

    const auto counts = compiled.kernel_counts();
    EXPECT_EQ(counts.permutation + counts.diagonal + counts.single_wire +
                  counts.controlled + counts.dense,
              c.num_ops());
    EXPECT_GE(counts.permutation, 2u);
    EXPECT_GE(counts.single_wire, 2u);
    EXPECT_GE(counts.diagonal, 1u);
    EXPECT_GE(counts.controlled, 1u);
    EXPECT_GE(counts.dense, 1u);
}

TEST(Exec, CompiledCircuitUnitaryMatchesReferencePerColumn) {
    const auto dims = WireDims::uniform(2, 3);
    Circuit c(dims);
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Z3(), {1});
    const Matrix u = circuit_unitary(c);
    // Column-by-column reference via the raw apply path.
    for (Index col = 0; col < dims.size(); ++col) {
        StateVector psi(dims);
        psi[0] = Complex(0, 0);
        psi[col] = Complex(1, 0);
        for (const Operation& op : c.ops()) {
            psi.apply(op.gate.matrix(), op.wires);
        }
        for (Index row = 0; row < dims.size(); ++row) {
            EXPECT_NEAR(std::abs(u(row, col) - psi[row]), 0.0, 1e-10);
        }
    }
}

TEST(Exec, PlanCacheSharesTablesBetweenOps) {
    const WireDims dims = WireDims::uniform(3, 3);
    exec::PlanCache cache(dims);
    const std::vector<int> wires = {0, 2};
    const auto a = cache.get(wires);
    const auto b = cache.get(wires);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->block, 9u);
    EXPECT_EQ(a->outer_count(), 3u);
}

TEST(Exec, PlanCacheConcurrentLookupsReturnIdenticalTables) {
    // Regression: the cache map had no lock, so concurrent compilation
    // (e.g. ops compiled under OpenMP, or engines sharing one cache)
    // raced the insert. Hammer one cache from many threads and check
    // every caller sees a consistent plan with identical tables.
    const WireDims dims = WireDims::uniform(5, 3);
    exec::PlanCache cache(dims);
    const std::vector<std::vector<int>> sites = {
        {0}, {1}, {2}, {0, 1}, {1, 2}, {3, 4}, {0, 4}, {2, 3}};
    constexpr int kThreads = 8;
    std::vector<std::vector<std::shared_ptr<const exec::ApplyPlan>>> got(
        kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t]() {
            for (int rep = 0; rep < 50; ++rep) {
                for (const auto& wires : sites) {
                    got[static_cast<std::size_t>(t)].push_back(
                        cache.get(wires));
                }
            }
        });
    }
    for (std::thread& th : pool) {
        th.join();
    }
    // All threads agree with a fresh single-threaded build of each site.
    for (std::size_t s = 0; s < sites.size(); ++s) {
        const auto reference = exec::make_apply_plan(dims, sites[s]);
        for (int t = 0; t < kThreads; ++t) {
            const auto& plan = got[static_cast<std::size_t>(t)][s];
            ASSERT_NE(plan, nullptr);
            EXPECT_EQ(plan->block, reference->block);
            EXPECT_EQ(plan->local_offset, reference->local_offset);
            EXPECT_EQ(plan->base_offsets, reference->base_offsets);
            // Within one register, a wire tuple resolves to ONE shared
            // plan object for every thread.
            EXPECT_EQ(plan.get(),
                      got[0][s].get());
        }
    }
}

TEST(Exec, BaseOfMatchesTabulatedOffsets) {
    // Past ApplyPlan::kBaseTableCap the base table is not materialised and
    // base_of computes offsets arithmetically; check the two paths agree.
    const WireDims dims({3, 2, 3, 2, 3});
    const auto plan = exec::make_apply_plan(dims, std::vector<int>{1, 3});
    ASSERT_FALSE(plan->base_offsets.empty());
    exec::ApplyPlan streamed = *plan;  // simulate a beyond-cap plan
    streamed.base_offsets.clear();
    for (Index o = 0; o < plan->outer_count(); ++o) {
        EXPECT_EQ(streamed.base_of(o),
                  plan->base_offsets[static_cast<std::size_t>(o)])
            << o;
    }
}

TEST(Exec, PlanRunsWalkTheBasesInOrder) {
    // plan.run counts the configurations of the non-operand wires below
    // every operand, capped at the low table: 1 when the lowest wire is
    // an operand, the whole low table when every operand sits above it.
    const WireDims dims({3, 2, 3, 2, 3});
    const std::vector<std::pair<std::vector<int>, Index>> cases = {
        {{4}, 1}, {{1, 3}, 3}, {{2}, 6}, {{0}, 6}, {{3, 0}, 3}};
    for (const auto& [wires, run] : cases) {
        const auto plan = exec::make_apply_plan(dims, wires);
        ASSERT_EQ(plan->run, run) << wires[0];
        const std::size_t nlo = plan->base_lo.size();
        ASSERT_EQ(nlo % run, 0u);
        Index o = 0;
        for (const Index hi : plan->base_hi) {
            for (std::size_t k = 0; k < nlo; k += run) {
                for (Index r = 0; r < run; ++r, ++o) {
                    EXPECT_EQ(hi + plan->base_lo[k] + r, plan->base_of(o))
                        << wires[0] << " " << o;
                }
            }
        }
        EXPECT_EQ(o, plan->outer_count());
    }
}

TEST(Exec, PlanRejectsRegistersPastTheSplitTables) {
    // 2^41 outer blocks: the split base tables would outgrow
    // kBaseTableCap, and no such register fits in memory anyway.
    const WireDims dims = WireDims::uniform(42, 2);
    EXPECT_THROW(exec::make_apply_plan(dims, std::vector<int>{0}),
                 std::length_error);
    EXPECT_NO_THROW(exec::make_apply_plan(dims, std::vector<int>{0, 1}));
}

TEST(Exec, ApplyRejectsOpsCompiledForAnotherRegister) {
    // A diagonal compiled on a larger register would write past the state,
    // one from a smaller register would scale the wrong amplitudes.
    Rng rng(41);
    const WireDims dims = WireDims::uniform(3, 3);
    for (const WireDims& other :
         {WireDims::uniform(4, 3), WireDims::uniform(2, 3)}) {
        const CompiledOp op =
            exec::compile_op(other, gates::Z3(), std::vector<int>{1});
        StateVector psi = haar_random_state(dims, rng);
        const StateVector before = psi;
        exec::BatchedScratch scratch;
        EXPECT_THROW(exec::apply_op(op, psi, scratch), std::invalid_argument);
        for (Index i = 0; i < dims.size(); ++i) {
            ASSERT_EQ(psi[i], before[i]) << "index " << i;
        }
    }
}

TEST(Exec, OneStatePassesAreTeamInvariantPastTheParallelThreshold) {
    // simulate() on 3^10 amplitudes or more runs one state through kernel
    // teams. Each kernel class on operands whose outer-block count reaches
    // the OpenMP threshold (kernel_team opens the full team), run serial
    // and on a 4-thread team: the two must agree bitwise and both match
    // the reference. The d = 2 unrolled kernel needs a qubit register.
    Rng rng(42);
    const WireDims q3 = WireDims::uniform(11, 3);
    const WireDims q2 = WireDims::uniform(14, 2);
    const Gate zx("Z3xX+1", std::vector<int>{3, 3},
                  gates::Z3().matrix().kron(gates::Xplus1().matrix()));
    struct Case {
        WireDims dims;
        Gate gate;
        std::vector<int> wires;
        KernelKind kind;
    };
    // Block bases come in runs of several (every operand above the least
    // significant wire) or of one (an operand on it).
    const std::vector<Case> cases = {
        {q3, gates::Xplus1().controlled(3, 2), {3, 9},
         KernelKind::kPermutation},
        {q3, gates::Z3(), {5}, KernelKind::kDiagonal},
        {q3, zx, {10, 2}, KernelKind::kMonomial},
        {q3, gates::H3(), {9}, KernelKind::kSingleWireD3},
        {q3, gates::fourier(3).controlled(3, 1), {0, 7},
         KernelKind::kControlled},
        {q3, Gate("rand", {3, 3}, random_matrix(9, rng)), {6, 1},
         KernelKind::kDense},
        {q2, gates::H(), {13}, KernelKind::kSingleWireD2},
    };
    for (const Case& c : cases) {
        const CompiledOp op = exec::compile_op(c.dims, c.gate, c.wires);
        ASSERT_EQ(op.kind, c.kind) << c.gate.name();
#ifdef _OPENMP
        const Index outer = op.plan != nullptr ? op.plan->outer_count()
                                               : op.dim / op.period1;
        ASSERT_EQ(exec::kernel_team(static_cast<std::int64_t>(outer), 4), 4)
            << exec::kernel_name(op.kind) << ": " << outer << " blocks";
#endif
        const StateVector init = haar_random_state(c.dims, rng);
        StateVector serial = init, team = init, ref = init;
        exec::BatchedScratch one, four;
        one.threads = 1;
        four.threads = 4;
        exec::apply_op(op, serial, one);
        exec::apply_op(op, team, four);
        ref.apply(c.gate.matrix(), c.wires);
        for (Index i = 0; i < init.size(); ++i) {
            ASSERT_EQ(std::memcmp(&serial[i], &team[i], sizeof(Complex)), 0)
                << exec::kernel_name(op.kind) << " index " << i;
            ASSERT_NEAR(std::abs(serial[i] - ref[i]), 0.0, 1e-10)
                << exec::kernel_name(op.kind) << " index " << i;
        }
    }
}

TEST(Exec, CompileRejectsInvalidSites) {
    const WireDims dims = WireDims::uniform(3, 3);
    EXPECT_THROW(
        exec::compile_op(dims, gates::CNOT(), std::vector<int>{0, 0}),
        std::invalid_argument);
    EXPECT_THROW(
        exec::compile_op(dims, gates::CNOT(), std::vector<int>{0, 5}),
        std::invalid_argument);
    // Qubit gate on a qutrit wire.
    EXPECT_THROW(exec::compile_op(dims, gates::X(), std::vector<int>{1}),
                 std::invalid_argument);
    EXPECT_THROW(
        exec::make_apply_plan(dims, std::vector<int>{1, 1}),
        std::invalid_argument);
}

}  // namespace
}  // namespace qd
