/**
 * @file lane_kernels.h
 * The two builds of the lane kernels and the run-time pick between them
 * (internal to the execution engine and its tests).
 *
 * batched_kernels.cc holds every hot lane loop: the one kernel set, which
 * runs a single state as a one-lane pass and a shot group as a B-lane
 * pass, and the per-lane primitives of BatchedStateVector. CMake compiles
 * it twice from the one source, once as the rest of the library into
 * namespace qd::exec::baseline and, where the compiler accepts -mavx2,
 * once more with -mavx2 alone into qd::exec::avx2. lane_kernels() hands out the AVX2
 * build when it was compiled and the CPU reports AVX2, and the baseline
 * otherwise; nothing else chooses.
 *
 * Both builds do the same IEEE operations in the same order per lane: the
 * AVX2 build only processes more lanes per instruction, so the two are
 * bitwise equal (tests/qdsim/test_batched.cc, BatchedIsa.*). That holds
 * only while the AVX2 build contains no fused multiply-add. Never build it
 * with -mfma, -march= or AVX-512: with them GCC 12 turns the lanes'
 * complex multiplies into vfmaddsub / vfmsubadd even under
 * -ffp-contract=off, and the two builds stop agreeing. CI disassembles
 * the AVX2 object and fails on any FMA instruction.
 *
 * The entry points below run no argument check and no obs hook: the
 * dispatching layer (apply_op, apply_op_batched, the BatchedStateVector
 * members) does both once per call, outside every OpenMP region.
 */
#ifndef QDSIM_EXEC_LANE_KERNELS_H
#define QDSIM_EXEC_LANE_KERNELS_H

#include <cstddef>
#include <vector>

#include "qdsim/exec/batched_kernels.h"

namespace qd::exec {

/** Entry points of one build of batched_kernels.cc. Lane-major storage
 *  throughout: amplitude i of lane b at amps[i * lanes + b]. */
struct LaneKernels {
    /** "baseline" or "avx2". */
    const char* isa;
    /** Runs `op` over every lane (the kernel switch of apply_op and
     *  apply_op_batched). */
    void (*apply_op)(const CompiledOp& op, Complex* amps, std::size_t lanes,
                     BatchedScratch& scratch);
    /** Squared norm of lane `lane` over `n` amplitudes. */
    Real (*norm_sq_lane)(const Complex* amps, std::size_t n,
                         std::size_t lanes, std::size_t lane);
    /** Squared norm of every lane into out[0, lanes). */
    void (*norm_sq_lanes)(const Complex* amps, std::size_t n,
                          std::size_t lanes, Real* out);
    /** |<a_b|o_b>|^2 of every lane b into out[0, lanes). */
    void (*fidelity_lanes)(const Complex* a, const Complex* o, std::size_t n,
                           std::size_t lanes, Real* out);
    /** The dephasing kick's pass: amplitude h * nlo + l of lane b times
     *  hi[h * lanes + b] * lo[l * lanes + b]. */
    void (*product_diag_lanes)(Complex* amps, const Complex* hi,
                               std::size_t nhi, const Complex* lo,
                               std::size_t nlo, std::size_t lanes);
};

namespace baseline {
extern const LaneKernels kLaneKernels;
}  // namespace baseline

/** The AVX2 build, or null where the compiler could not build it. */
const LaneKernels* avx2_lane_kernels() noexcept;

/** The build every dispatching call runs: the AVX2 build when it exists
 *  and the CPU has AVX2, else the baseline. Picked once per process. */
const LaneKernels& lane_kernels() noexcept;

/** `buf` grown to at least `n` entries; returns its storage. The kernels
 *  grow every buffer through this baseline function, so the AVX2 build
 *  compiles no std::vector growth code: the linker keeps one copy of such
 *  inline code for the whole program, and an AVX2-compiled copy could
 *  serve callers on a CPU without AVX2. */
Complex* grow_buffer(std::vector<Complex>& buf, std::size_t n);

}  // namespace qd::exec

#endif  // QDSIM_EXEC_LANE_KERNELS_H
