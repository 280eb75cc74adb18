/**
 * @file batched_kernels.h
 * Batched variants of the specialized gate-application kernels.
 *
 * `apply_op_batched` executes one CompiledOp over every lane of a
 * BatchedStateVector in a single pass: the plan's offset tables and the
 * gate payload are read once per amplitude block instead of once per shot,
 * and the per-amplitude work runs over the B contiguous lanes with
 * `QD_SIMD` inner loops. Where the plan's outer blocks come in runs of
 * consecutive bases (ApplyPlan::run), the permutation, diagonal, monomial
 * and small controlled kernels take a run as one block of run x B lanes,
 * so the lane loops stream at one or two lanes too. Outer blocks go
 * parallel via OpenMP once outer blocks x lanes reach the single-shot
 * kernels' threshold, with at most BatchedScratch::threads threads.
 *
 * Per lane, every kernel performs the same floating-point operations in
 * the same order as its single-shot counterpart in kernels.cc, so lane b
 * of a batched pass is bitwise identical to an unbatched apply_op on the
 * same state (property-tested in tests/qdsim/test_batched.cc). That is
 * what lets the trajectory engine mix batched passes with per-lane
 * single-shot fallbacks for divergent events.
 *
 * The kernels are built twice, as the rest of the library and with -mavx2
 * alone, and apply_op_batched runs the AVX2 build once the CPU reports
 * AVX2 (lane_kernels.h); kernel_isa() names the build that runs. The AVX2
 * build only handles more lanes per instruction, so it is bitwise equal
 * to the baseline. It must never contain a fused multiply-add: with -mfma
 * or AVX-512, GCC 12 fuses the lanes' complex multiplies into vfmaddsub
 * even under -ffp-contract=off, and lanes would stop matching the
 * single-shot zoo, which stays on the baseline build.
 */
#ifndef QDSIM_EXEC_BATCHED_KERNELS_H
#define QDSIM_EXEC_BATCHED_KERNELS_H

#include "qdsim/exec/batched_state.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/exec/kernels.h"

namespace qd::exec {

/** Reusable lane-major buffers, one per executing thread, grown on demand
 *  like ExecScratch: `in` gathers operand blocks for the matvec kernels
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

/** Executes a compiled operation on every lane in place.
 *  @throws std::invalid_argument, before any lane changes, unless `psi`
 *          has the size of the register the op was compiled for. */
void apply_op_batched(const CompiledOp& op, BatchedStateVector& psi,
                      BatchedScratch& scratch);

/** Raw-storage form: `amps` holds `lanes` states over the op's register
 *  in the BatchedStateVector layout (amplitude idx of lane b at
 *  amps[idx * lanes + b]). A row-major D x D matrix is D lanes, one per
 *  column, so this maps it to K times it. */
void apply_op_batched(const CompiledOp& op, Complex* amps, int lanes,
                      BatchedScratch& scratch);

/** Applies all operations of a compiled circuit to every lane in order. */
void run_batched(const CompiledCircuit& compiled, BatchedStateVector& psi,
                 BatchedScratch& scratch);

/** The lane-kernel build this process runs: "avx2" or "baseline". */
const char* kernel_isa() noexcept;

}  // namespace qd::exec

#endif  // QDSIM_EXEC_BATCHED_KERNELS_H
