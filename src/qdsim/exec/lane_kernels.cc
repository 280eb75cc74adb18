/**
 * @file lane_kernels.cc
 * The dispatching layer of the one kernel set: the argument checks and
 * obs hooks of apply_op (one state, a one-lane pass) and apply_op_batched
 * (B lanes), outside every OpenMP region, and the once-per-process pick
 * between the two builds of batched_kernels.cc (lane_kernels.h).
 */
#include "qdsim/exec/lane_kernels.h"

#include <stdexcept>

namespace qd::exec {

// CMake defines QD_HAVE_AVX2_LANES where it compiled the -mavx2 build.
#ifdef QD_HAVE_AVX2_LANES
namespace avx2 {
extern const LaneKernels kLaneKernels;
}  // namespace avx2
#endif

namespace {

const LaneKernels&
pick_lane_kernels() noexcept
{
#ifdef QD_HAVE_AVX2_LANES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
        return avx2::kLaneKernels;
    }
#endif
    return baseline::kLaneKernels;
}

}  // namespace

const LaneKernels*
avx2_lane_kernels() noexcept
{
#ifdef QD_HAVE_AVX2_LANES
    return &avx2::kLaneKernels;
#else
    return nullptr;
#endif
}

const LaneKernels&
lane_kernels() noexcept
{
    static const LaneKernels& picked = pick_lane_kernels();
    return picked;
}

Complex*
grow_buffer(std::vector<Complex>& buf, std::size_t n)
{
    if (buf.size() < n) {
        buf.resize(n);
    }
    return buf.data();
}

const char*
kernel_isa() noexcept
{
    return lane_kernels().isa;
}

void
apply_op(const CompiledOp& op, StateVector& psi, BatchedScratch& scratch)
{
    if (op.dim != psi.size()) {
        throw std::invalid_argument(
            "apply_op: op compiled for another register");
    }
    // Hook sits outside the kernels' OpenMP regions; counts land in the
    // calling thread's block (see obs/counters.h). One state counts as
    // kernel.ss.<class>, never as a batched dispatch.
    if (obs::enabled()) {
        obs::count_unchecked(kernel_counter(op.kind, /*batched=*/false));
        obs::count_unchecked(obs::Counter::kEstimatedFlops,
                             op_flop_estimate(op, psi.size()));
    }
    // At one lane the lane-major layout is the StateVector's own.
    lane_kernels().apply_op(op, psi.amplitudes().data(), 1, scratch);
}

void
apply_op_batched(const CompiledOp& op, BatchedStateVector& psi,
                 BatchedScratch& scratch)
{
    if (op.dim != psi.size()) {
        throw std::invalid_argument(
            "apply_op_batched: op compiled for another register");
    }
    apply_op_batched(op, psi.data(), psi.lanes(), scratch);
}

void
apply_op_batched(const CompiledOp& op, Complex* amps, int lanes,
                 BatchedScratch& scratch)
{
    const std::size_t B = static_cast<std::size_t>(lanes);
    // Counter hook sits OUTSIDE the kernels' OpenMP regions. The class
    // counter advances by the lane count so per-class totals over
    // kernel.ss and kernel.bat are invariant under the batch width (each
    // lane is bitwise one apply_op).
    if (obs::enabled()) {
        obs::count_unchecked(kernel_counter(op.kind, /*batched=*/true), B);
        obs::count_unchecked(obs::Counter::kBatDispatches);
        obs::count_unchecked(
            obs::Counter::kEstimatedFlops,
            op_flop_estimate(op, op.dim) * static_cast<std::uint64_t>(B));
    }
    lane_kernels().apply_op(op, amps, B, scratch);
}

void
run_batched(const CompiledCircuit& compiled, BatchedStateVector& psi,
            BatchedScratch& scratch)
{
    for (const CompiledOp& op : compiled.ops()) {
        apply_op_batched(op, psi, scratch);
    }
}

}  // namespace qd::exec
