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

/**
 * Walks the cycles of the permutation `perm`, each from its smallest
 * member, calling slot(i) for every member in cycle order and recording
 * each cycle's length; fixed points i with skip(i) are left out.
 */
template <class Skip, class Slot>
void
walk_cycles(const std::vector<Index>& perm, Skip&& skip, Slot&& slot,
            std::vector<std::uint32_t>& lengths)
{
    std::vector<bool> seen(perm.size(), false);
    for (std::size_t start = 0; start < perm.size(); ++start) {
        if (seen[start] ||
            (perm[start] == static_cast<Index>(start) && skip(start))) {
            continue;
        }
        std::uint32_t len = 0;
        std::size_t b = start;
        do {
            seen[b] = true;
            slot(b);
            ++len;
            b = static_cast<std::size_t>(perm[b]);
        } while (b != start);
        lengths.push_back(len);
    }
}

/** Builds the non-trivial cycles of the gate's local permutation, composed
 *  with the plan's local offsets so the kernel walks state offsets
 *  directly. */
void
build_cycles(const Gate& gate, const ApplyPlan& plan,
             std::vector<Index>& offsets, std::vector<std::uint32_t>& lengths)
{
    std::vector<Index> perm(static_cast<std::size_t>(plan.block));
    for (std::size_t b = 0; b < perm.size(); ++b) {
        perm[b] = gate.permute(static_cast<Index>(b));
    }
    walk_cycles(
        perm, [](std::size_t) { return true; },
        [&](std::size_t b) { offsets.push_back(plan.local_offset[b]); },
        lengths);
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
    walk_cycles(
        perm,
        [&](std::size_t i) {
            return std::abs(phase[i] - Complex(1, 0)) <= kTol;
        },
        [&](std::size_t b) {
            offsets.push_back(plan.local_offset[b]);
            phases.push_back(phase[b]);
        },
        lengths);
}

/**
 * Block-monomial scan with operand `p` of `gate` as the target (t levels):
 * a local index splits into the target digit j and the configuration x of
 * the other operands. Succeeds when, for every column configuration x,
 * the entries above kTol of its t columns lie in the rows of one
 * configuration pi(x), and pi is a permutation. A configuration with no
 * entry above kTol (damping can drive a level's weight below it) maps
 * onto one of the rows left unused, itself where it can. Fills `pi`, the
 * local index of each configuration's digit-0 amplitude (`head`), and per
 * x the row-major t x t block from x to pi(x), with the matrix's raw
 * entries.
 */
bool
block_monomial_action(const Gate& gate, std::size_t p, std::vector<Index>& pi,
                      std::vector<Index>& head, std::vector<Complex>& blocks)
{
    const Matrix& m = gate.matrix();
    const Index block = gate.block_size();
    const Index t = static_cast<Index>(gate.dims()[p]);
    Index lo_size = 1;  // local stride of the target digit
    for (std::size_t q = p + 1; q < gate.dims().size(); ++q) {
        lo_size *= static_cast<Index>(gate.dims()[q]);
    }
    const Index nconf = block / t;
    auto local = [&](Index x, Index j) {
        return x / lo_size * lo_size * t + j * lo_size + x % lo_size;
    };
    auto conf = [&](Index b) {
        return b / (lo_size * t) * lo_size + b % lo_size;
    };
    const std::size_t tt = static_cast<std::size_t>(t * t);
    pi.assign(static_cast<std::size_t>(nconf), 0);
    head.resize(static_cast<std::size_t>(nconf));
    blocks.assign(static_cast<std::size_t>(nconf) * tt, Complex(0, 0));
    std::vector<bool> row_used(static_cast<std::size_t>(nconf), false);
    std::vector<Index> empty;  // configurations with no entry above kTol
    for (Index x = 0; x < nconf; ++x) {
        Index y = nconf;  // sentinel: no entry above kTol yet
        for (Index j = 0; j < t; ++j) {
            const std::size_t col = static_cast<std::size_t>(local(x, j));
            for (Index r = 0; r < block; ++r) {
                if (std::abs(m(static_cast<std::size_t>(r), col)) <= kTol) {
                    continue;
                }
                if (y == nconf) {
                    y = conf(r);
                } else if (conf(r) != y) {
                    return false;
                }
            }
        }
        if (y == nconf) {
            empty.push_back(x);
            continue;
        }
        if (row_used[static_cast<std::size_t>(y)]) {
            return false;
        }
        row_used[static_cast<std::size_t>(y)] = true;
        pi[static_cast<std::size_t>(x)] = y;
    }
    // As many rows as empty configurations are left unused.
    Index next_free = 0;
    for (const Index x : empty) {
        Index y = x;
        if (row_used[static_cast<std::size_t>(y)]) {
            while (row_used[static_cast<std::size_t>(next_free)]) {
                ++next_free;
            }
            y = next_free;
        }
        row_used[static_cast<std::size_t>(y)] = true;
        pi[static_cast<std::size_t>(x)] = y;
    }
    for (Index x = 0; x < nconf; ++x) {
        const Index y = pi[static_cast<std::size_t>(x)];
        head[static_cast<std::size_t>(x)] = local(x, 0);
        Complex* out = blocks.data() + static_cast<std::size_t>(x) * tt;
        for (Index i = 0; i < t; ++i) {
            for (Index j = 0; j < t; ++j) {
                out[i * t + j] = m(static_cast<std::size_t>(local(y, i)),
                                   static_cast<std::size_t>(local(x, j)));
            }
        }
    }
    return true;
}

/** Builds the cycles of a block-monomial action over its configurations,
 *  as build_monomial_cycles does for single amplitudes: one slot per
 *  configuration (its digit-0 amplitude's state offset) and its t x t
 *  block; fixed points whose block is the identity within kTol are
 *  skipped. */
void
build_block_cycles(const std::vector<Index>& pi, const std::vector<Index>& head,
                   const std::vector<Complex>& blocks, std::size_t t,
                   const ApplyPlan& plan, std::vector<Index>& offsets,
                   std::vector<Complex>& cycle_blocks,
                   std::vector<std::uint32_t>& lengths)
{
    const std::size_t tt = t * t;
    walk_cycles(
        pi,
        [&](std::size_t x) {
            for (std::size_t i = 0; i < tt; ++i) {
                const Complex one(i % (t + 1) == 0 ? 1 : 0, 0);
                if (std::abs(blocks[x * tt + i] - one) > kTol) {
                    return false;
                }
            }
            return true;
        },
        [&](std::size_t x) {
            offsets.push_back(
                plan.local_offset[static_cast<std::size_t>(head[x])]);
            const auto first =
                blocks.begin() + static_cast<std::ptrdiff_t>(x * tt);
            cycle_blocks.insert(cycle_blocks.end(), first,
                                first + static_cast<std::ptrdiff_t>(tt));
        },
        lengths);
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
        case KernelKind::kBlockMonomial:
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
        case KernelKind::kBlockMonomial: {
            const auto t = static_cast<std::uint64_t>(op.inner_offset.size());
            return op.plan == nullptr
                       ? 0
                       : op.plan->outer_count() *
                             static_cast<std::uint64_t>(
                                 op.cycle_offsets.size()) *
                             t * t * 8;
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
        case KernelKind::kBlockMonomial:
            return "block_monomial";
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
    // Block-monomial: one 2- or 3-level target whose blocks the other
    // operands' configurations permute (a controlled or permutation block
    // with damping diagonals folded in).
    for (std::size_t p = 0; p < wires.size(); ++p) {
        const int t = gate.dims()[p];
        std::vector<Index> pi, head;
        std::vector<Complex> blocks;
        if ((t != 2 && t != 3) ||
            !block_monomial_action(gate, p, pi, head, blocks)) {
            continue;
        }
        op.kind = KernelKind::kBlockMonomial;
        op.inner_offset.resize(static_cast<std::size_t>(t));
        for (int j = 0; j < t; ++j) {
            op.inner_offset[static_cast<std::size_t>(j)] =
                static_cast<Index>(j) * dims.stride(wires[p]);
        }
        build_block_cycles(pi, head, blocks, static_cast<std::size_t>(t),
                           *op.plan, op.cycle_offsets, op.cycle_blocks,
                           op.cycle_lengths);
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
