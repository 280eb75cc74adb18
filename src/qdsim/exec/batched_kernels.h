/**
 * @file batched_kernels.h
 * The lane kernels: the one kernel set, run over B lanes per pass.
 *
 * `apply_op_batched` executes one CompiledOp over every lane of a
 * BatchedStateVector in a single pass: the plan's offset tables and the
 * gate payload are read once per amplitude block instead of once per shot,
 * and the per-amplitude work runs over the B contiguous lanes with
 * `QD_SIMD` inner loops. Where the plan's outer blocks come in runs of
 * consecutive bases (ApplyPlan::run), the permutation, diagonal,
 * monomial, block-monomial and small controlled kernels take a run as one
 * block of run x B lanes, so the lane loops stream at one or two lanes
 * too. kControlled with one 2- or 3-level target runs an unrolled kernel
 * that holds the inner matrix in locals, and kBlockMonomial walks its
 * cycles as kMonomial does with one unrolled 2x2 or 3x3 block per slot;
 * wider targets and kDense keep the gather matvec, block by block. Outer
 * blocks go parallel via OpenMP once outer blocks x lanes
 * reach kernel_team's threshold, with at most BatchedScratch::threads
 * threads.
 *
 * These are the only kernels: exec::apply_op runs one StateVector as a
 * one-lane pass of the same code (kernels.h). Every kernel computes a lane
 * from that lane's values alone, in a fixed order, so lane b of a B-lane
 * pass is bitwise equal to the one-lane pass on that lane, and each class
 * matches StateVector::apply, the dense reference, up to rounding
 * (property-tested in tests/qdsim/test_batched.cc). That lane invariance
 * is what lets the trajectory engine replay one lane between batched
 * passes and rejoin it.
 *
 * The kernels are built twice, as the rest of the library and with -mavx2
 * alone, and both entry points run the AVX2 build once the CPU reports
 * AVX2 (lane_kernels.h); kernel_isa() names the build that runs. The AVX2
 * build only handles more lanes per instruction, so it is bitwise equal
 * to the baseline. It must never contain a fused multiply-add: with -mfma
 * or AVX-512, GCC 12 fuses the lanes' complex multiplies into vfmaddsub
 * even under -ffp-contract=off, and the two builds would stop agreeing.
 */
#ifndef QDSIM_EXEC_BATCHED_KERNELS_H
#define QDSIM_EXEC_BATCHED_KERNELS_H

#include "qdsim/exec/batched_state.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/exec/kernels.h"

namespace qd::exec {

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
