/**
 * @file kernels.h
 * Gate compilation for the kernel set, and its single-state entry point.
 *
 * `compile_op` inspects the gate's cached structure (permutation action,
 * diagonality, controlled-subspace split — all derived once at Gate
 * construction) and its geometry, and routes it to the cheapest kernel:
 *
 *  - kPermutation: pure index remap along precomputed cycles; zero complex
 *    multiplies. Covers X/CX/Toffoli-family gates of any arity.
 *  - kDiagonal: in-place scale by the diagonal; any arity.
 *  - kMonomial: generalized permutations (exactly one nonzero per row and
 *    column — X^j Z^k depolarizing terms, and the phase∘permutation
 *    products the fusion stage emits): values move along precomputed
 *    cycles with one phase multiply each, no matvec.
 *  - kSingleWireD2 / kSingleWireD3: fully unrolled dense 2x2 / 3x3 kernels
 *    walking the state in contiguous runs (no offset tables at all).
 *  - kControlled: touches only the `d^N / d^c` amplitudes where the `c`
 *    control operands hold their activation values, applying the inner
 *    dense operator there.
 *  - kDense: generic gather/multiply/scatter against precomputed offsets —
 *    the fallback.
 *
 * One kernel set runs every class: the lane kernels of batched_kernels.cc
 * (batched_kernels.h), which advance B lane-interleaved states per pass.
 * `apply_op` runs one StateVector through them as a one-lane pass on the
 * state's own storage, since at one lane the lane-major layout is the
 * plain one. Lane b of a B-lane pass is therefore bitwise equal to
 * `apply_op` on that lane's state, and every class matches
 * StateVector::apply, the dense reference implementation, up to rounding
 * (tests/qdsim/test_exec.cc, tests/qdsim/test_batched.cc).
 *
 * The kernels are allocation-free and div/mod-free in their inner loops;
 * their outer loops go parallel via OpenMP once outer blocks x lanes reach
 * one threshold (kernel_team), and blocks are disjoint by construction.
 */
#ifndef QDSIM_EXEC_KERNELS_H
#define QDSIM_EXEC_KERNELS_H

#include <cstdint>
#include <span>
#include <vector>

#include "qdsim/exec/apply_plan.h"
#include "qdsim/gate.h"
#include "qdsim/obs/counters.h"
#include "qdsim/state_vector.h"

namespace qd::exec {

/** Which specialized kernel a compiled operation runs on. */
enum class KernelKind : std::uint8_t {
    kPermutation,
    kDiagonal,
    kMonomial,
    kSingleWireD2,
    kSingleWireD3,
    kControlled,
    kDense,
};

/** Human-readable kernel name (bench/test logging). */
const char* kernel_name(KernelKind kind);

/** Reusable lane-major buffers, one per executing thread, grown on demand
 *  so the kernels stop allocating once they have seen the circuit's
 *  largest block: `in` gathers operand blocks for the matvec kernels
 *  (outputs store straight back to the state, so there is no scatter
 *  buffer), `tmp` holds one lane row during permutation cycle walks.
 *  `threads` is the OpenMP team size this thread's kernels may open on
 *  large registers: 0 = the OpenMP default, 1 = always serial. A caller
 *  running several batches side by side gives each one its share of the
 *  thread budget here, so the teams never add up past it. */
struct BatchedScratch {
    std::vector<Complex> in, tmp;
    int threads = 0;
};

/**
 * One operation compiled against a fixed register: the chosen kernel plus
 * the precomputed data it consumes. Immutable after compile_op; safe to
 * share across threads (each thread brings its own BatchedScratch).
 */
struct CompiledOp {
    KernelKind kind = KernelKind::kDense;
    /** Original gate; keeps the matrix payload alive for kDense. */
    Gate gate;
    std::vector<int> wires;
    /** Size of the register the op was compiled for (dims.size()). */
    Index dim = 0;
    /** Offset tables; null for the single-wire unrolled kernels. */
    std::shared_ptr<const ApplyPlan> plan;

    /** Indices of the circuit operations this compiled op realises, in
     *  application order. One entry for a plain compilation; several when
     *  the fusion stage merged adjacent operations into this block. */
    std::vector<std::uint32_t> source_ops;

    // kPermutation / kMonomial: concatenated non-trivial cycles of local
    // offsets (already composed with the plan's local_offset table). For
    // kMonomial, cycle_phases aligns with cycle_offsets: the value moving
    // from cycle slot i to slot i+1 is scaled by cycle_phases[i], and
    // length-1 cycles are fixed points with a non-unit phase.
    std::vector<Index> cycle_offsets;
    std::vector<Complex> cycle_phases;
    std::vector<std::uint32_t> cycle_lengths;

    // kDiagonal: the matrix diagonal, local-block order.
    std::vector<Complex> diag;

    // kSingleWireD2 / kSingleWireD3: row-major unitary entries and the
    // wire's run geometry: runs of stride1 amplitudes share the wire's
    // digit, which advances every stride1 and wraps every period1.
    Complex u[9] = {};
    Index stride1 = 0;
    Index period1 = 0;

    // kControlled: fixed offset selecting the active control digits, the
    // target-block offsets relative to base + ctrl_offset, and the inner
    // dense operator.
    Index ctrl_offset = 0;
    std::vector<Index> inner_offset;
    Matrix inner;
};

/**
 * Generalized-permutation scan: perm[c] = r and phase[c] = op(r, c) if
 * every column and every row of `op` has exactly one entry above kTol.
 * Covers all X^j Z^k depolarizing terms and phase∘permutation fusion
 * products; returns false for anything else (e.g. non-invertible Kraus
 * jumps), which falls through to the dense kernels.
 */
bool monomial_action(const Matrix& op, std::vector<Index>& perm,
                     std::vector<Complex>& phase);

/**
 * Compiles one (gate, wires) application site against `dims`, choosing the
 * kernel from the gate's cached structure. `cache` (optional) shares
 * ApplyPlans between operations on the same wires; `plan_salt`
 * distinguishes plan variants in the cache (the fusion stage keys fused
 * groups by its cost cap — see PlanCache).
 *
 * @throws std::invalid_argument on wire/dimension mismatches (same
 *         contract as Circuit::append / StateVector::apply).
 */
CompiledOp compile_op(const WireDims& dims, const Gate& gate,
                      std::span<const int> wires, PlanCache* cache = nullptr,
                      Index plan_salt = 0);

/** Executes a compiled operation in place: one pass of the lane kernels
 *  at one lane (lane_kernels.cc). Counts `kernel.ss.<class>`, never
 *  `kernel.bat.*`.
 *  @throws std::invalid_argument, before the state changes, unless `psi`
 *          has the size of the register the op was compiled for. */
void apply_op(const CompiledOp& op, StateVector& psi, BatchedScratch& scratch);

/** Dispatch counter for one application of `kind`: the one-state
 *  counter (apply_op), or the batched counter when `batched` (advanced by
 *  the lane count there). The d=2/d=3 unrolled kernels share one
 *  "single_wire" class. */
obs::Counter kernel_counter(KernelKind kind, bool batched) noexcept;

/** Rough work estimate for one application of `op` over a register of
 *  `total` amplitudes, in real flops (a complex multiply-add counted as
 *  8). Pure index moves (permutations) count 0. */
std::uint64_t op_flop_estimate(const CompiledOp& op, Index total) noexcept;

/** OpenMP team size for a kernel's outer loop over `outer` disjoint
 *  lane-blocks (outer blocks x lanes): 1 below the parallel threshold
 *  (there a trajectory's parallelism is across shots, not inside one
 *  gate), else `threads` (a scratch's share of the budget; 0 = the OpenMP
 *  default). Blocks are disjoint, so results are bitwise independent of
 *  it. */
int kernel_team(std::int64_t outer, int threads) noexcept;

}  // namespace qd::exec

#endif  // QDSIM_EXEC_KERNELS_H
