#include "qdsim/exec/kernels.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace qd::exec {

namespace {

/** Outer-block count above which kernels parallelise with OpenMP. High
 *  enough that trajectory-sized registers stay serial (their parallelism
 *  is across shots, not inside one gate). */
constexpr Index kParallelOuter = Index{1} << 13;

/** Builds the non-trivial cycles of the gate's local permutation, composed
 *  with the plan's local offsets so the kernel walks state offsets
 *  directly. */
void
build_cycles(const Gate& gate, const ApplyPlan& plan,
             std::vector<Index>& offsets, std::vector<std::uint32_t>& lengths)
{
    const Index block = plan.block;
    std::vector<bool> seen(static_cast<std::size_t>(block), false);
    for (Index start = 0; start < block; ++start) {
        if (seen[static_cast<std::size_t>(start)] ||
            gate.permute(start) == start) {
            continue;
        }
        std::uint32_t len = 0;
        Index b = start;
        do {
            seen[static_cast<std::size_t>(b)] = true;
            offsets.push_back(plan.local_offset[static_cast<std::size_t>(b)]);
            ++len;
            b = gate.permute(b);
        } while (b != start);
        lengths.push_back(len);
    }
}

/** Builds the non-trivial cycles of a monomial action (perm[c] = r,
 *  phase[c] = op(r, c)), composed with the plan's local offsets: a value
 *  at cycle slot i moves to slot i+1 scaled by phases[i]; length-1 cycles
 *  are fixed points with a non-unit phase (identity fixed points are
 *  skipped). */
void
build_monomial_cycles(const std::vector<Index>& perm,
                      const std::vector<Complex>& phase,
                      const ApplyPlan& plan, std::vector<Index>& offsets,
                      std::vector<Complex>& phases,
                      std::vector<std::uint32_t>& lengths)
{
    const Index block = plan.block;
    std::vector<bool> seen(static_cast<std::size_t>(block), false);
    for (Index start = 0; start < block; ++start) {
        const std::size_t us = static_cast<std::size_t>(start);
        if (seen[us]) {
            continue;
        }
        if (perm[us] == start) {
            if (std::abs(phase[us] - Complex(1, 0)) <= kTol) {
                continue;  // identity fixed point
            }
            offsets.push_back(plan.local_offset[us]);
            phases.push_back(phase[us]);
            lengths.push_back(1);
            continue;
        }
        std::uint32_t len = 0;
        Index b = start;
        do {
            const std::size_t ub = static_cast<std::size_t>(b);
            seen[ub] = true;
            offsets.push_back(plan.local_offset[ub]);
            phases.push_back(phase[ub]);
            ++len;
            b = perm[ub];
        } while (b != start);
        lengths.push_back(len);
    }
}

}  // namespace

bool
monomial_action(const Matrix& op, std::vector<Index>& perm,
                std::vector<Complex>& phase)
{
    const std::size_t n = op.rows();
    perm.assign(n, 0);
    phase.assign(n, Complex(0, 0));
    std::vector<bool> row_used(n, false);
    for (std::size_t c = 0; c < n; ++c) {
        std::size_t hits = 0, row = 0;
        for (std::size_t r = 0; r < n; ++r) {
            if (std::abs(op(r, c)) > kTol) {
                ++hits;
                row = r;
            }
        }
        if (hits != 1 || row_used[row]) {
            return false;
        }
        row_used[row] = true;
        perm[c] = static_cast<Index>(row);
        phase[c] = op(row, c);
    }
    return true;
}

obs::Counter
kernel_counter(KernelKind kind, bool batched) noexcept
{
    // Relies on the enum blocks sharing one class order (permutation,
    // diagonal, monomial, single_wire, controlled, dense).
    const auto base = static_cast<unsigned>(
        batched ? obs::Counter::kBatPermutation
                : obs::Counter::kSsPermutation);
    unsigned cls = 5;  // dense
    switch (kind) {
        case KernelKind::kPermutation:
            cls = 0;
            break;
        case KernelKind::kDiagonal:
            cls = 1;
            break;
        case KernelKind::kMonomial:
            cls = 2;
            break;
        case KernelKind::kSingleWireD2:
        case KernelKind::kSingleWireD3:
            cls = 3;
            break;
        case KernelKind::kControlled:
            cls = 4;
            break;
        case KernelKind::kDense:
            cls = 5;
            break;
    }
    return static_cast<obs::Counter>(base + cls);
}

std::uint64_t
op_flop_estimate(const CompiledOp& op, Index total) noexcept
{
    switch (op.kind) {
        case KernelKind::kPermutation:
            return 0;
        case KernelKind::kDiagonal:
            return total * 6;  // one complex multiply per amplitude
        case KernelKind::kMonomial:
            return op.plan == nullptr
                       ? 0
                       : op.plan->outer_count() *
                             static_cast<std::uint64_t>(
                                 op.cycle_offsets.size()) *
                             6;
        case KernelKind::kSingleWireD2:
            return total * 2 * 8;
        case KernelKind::kSingleWireD3:
            return total * 3 * 8;
        case KernelKind::kControlled: {
            const auto nb =
                static_cast<std::uint64_t>(op.inner_offset.size());
            return op.plan == nullptr
                       ? 0
                       : op.plan->outer_count() * nb * nb * 8;
        }
        case KernelKind::kDense: {
            if (op.plan == nullptr) {
                return 0;
            }
            const std::uint64_t block = op.plan->block;
            return op.plan->outer_count() * block * block * 8;
        }
    }
    return 0;
}

const char*
kernel_name(KernelKind kind)
{
    switch (kind) {
        case KernelKind::kPermutation:
            return "permutation";
        case KernelKind::kDiagonal:
            return "diagonal";
        case KernelKind::kMonomial:
            return "monomial";
        case KernelKind::kSingleWireD2:
            return "single_wire_d2";
        case KernelKind::kSingleWireD3:
            return "single_wire_d3";
        case KernelKind::kControlled:
            return "controlled";
        case KernelKind::kDense:
            return "dense";
    }
    return "unknown";
}

CompiledOp
compile_op(const WireDims& dims, const Gate& gate,
           std::span<const int> wires, PlanCache* cache, Index plan_salt)
{
    if (gate.empty()) {
        throw std::invalid_argument("compile_op: empty gate");
    }
    if (static_cast<int>(wires.size()) != gate.arity()) {
        throw std::invalid_argument("compile_op: wire count != gate arity");
    }
    for (int i = 0; i < gate.arity(); ++i) {
        const int w = wires[i];
        if (w < 0 || w >= dims.num_wires()) {
            throw std::invalid_argument("compile_op: wire out of range");
        }
        if (gate.dims()[static_cast<std::size_t>(i)] != dims.dim(w)) {
            throw std::invalid_argument(
                "compile_op: operand/wire dimension mismatch");
        }
    }

    CompiledOp op;
    op.gate = gate;
    op.wires.assign(wires.begin(), wires.end());
    op.dim = dims.size();

    // Single-wire unrolled kernels need no offset tables at all.
    if (gate.arity() == 1 && !gate.is_permutation() &&
        !gate.is_diagonal_gate() &&
        (dims.dim(wires[0]) == 2 || dims.dim(wires[0]) == 3)) {
        const int d = dims.dim(wires[0]);
        op.kind = d == 2 ? KernelKind::kSingleWireD2
                         : KernelKind::kSingleWireD3;
        const Matrix& m = gate.matrix();
        for (int r = 0; r < d; ++r) {
            for (int c = 0; c < d; ++c) {
                op.u[r * d + c] = m(static_cast<std::size_t>(r),
                                    static_cast<std::size_t>(c));
            }
        }
        op.stride1 = dims.stride(wires[0]);
        op.period1 = op.stride1 * static_cast<Index>(d);
        return op;
    }

    op.plan = cache != nullptr ? cache->get(wires, plan_salt)
                               : make_apply_plan(dims, wires);
    if (gate.is_permutation()) {
        op.kind = KernelKind::kPermutation;
        build_cycles(gate, *op.plan, op.cycle_offsets, op.cycle_lengths);
        return op;
    }
    if (gate.is_diagonal_gate()) {
        op.kind = KernelKind::kDiagonal;
        op.diag.resize(static_cast<std::size_t>(op.plan->block));
        for (Index b = 0; b < op.plan->block; ++b) {
            op.diag[static_cast<std::size_t>(b)] =
                gate.matrix()(static_cast<std::size_t>(b),
                              static_cast<std::size_t>(b));
        }
        return op;
    }
    {
        // Generalized permutation (one nonzero per row/column): cycle walk
        // with a phase multiply per move — covers X^j Z^k error terms and
        // the phase∘permutation blocks the fusion stage produces.
        std::vector<Index> perm;
        std::vector<Complex> phase;
        if (monomial_action(gate.matrix(), perm, phase)) {
            op.kind = KernelKind::kMonomial;
            build_monomial_cycles(perm, phase, *op.plan, op.cycle_offsets,
                                  op.cycle_phases, op.cycle_lengths);
            return op;
        }
    }
    if (gate.has_controlled_structure()) {
        const ControlledStructure& cs = gate.controlled_structure();
        op.kind = KernelKind::kControlled;
        for (int i = 0; i < cs.num_controls; ++i) {
            op.ctrl_offset +=
                static_cast<Index>(
                    cs.control_values[static_cast<std::size_t>(i)]) *
                dims.stride(wires[i]);
        }
        // Offsets of the trailing (target) operands, target 0 most
        // significant, matching the inner-matrix basis.
        op.inner_offset = local_offsets(
            dims, wires.subspan(static_cast<std::size_t>(cs.num_controls)));
        op.inner = cs.inner;
        return op;
    }
    op.kind = KernelKind::kDense;
    return op;
}

int
kernel_team(std::int64_t outer, int threads) noexcept
{
#ifdef _OPENMP
    if (outer >= static_cast<std::int64_t>(kParallelOuter)) {
        return threads > 0 ? threads : omp_get_max_threads();
    }
#else
    (void)outer;
    (void)threads;
#endif
    return 1;
}

}  // namespace qd::exec
