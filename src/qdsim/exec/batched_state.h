/**
 * @file batched_state.h
 * B-way batched state vector for Monte-Carlo trajectory sweeps.
 *
 * Stores B independent shots ("lanes") of the same register interleaved in
 * amplitude-major layout: amplitude `idx` of lane `b` lives at
 * `amps[b + B*idx]`, so the B lanes of one amplitude are contiguous and the
 * per-amplitude work of a kernel vectorises across lanes with
 * `#pragma omp simd`. One pass of a compiled circuit over a
 * BatchedStateVector advances B trajectories while reading every apply-plan
 * offset table once instead of B times (cf. the batched Monte-Carlo runs of
 * superconducting-qutrit noise studies, arXiv:2305.16507).
 *
 * Every per-lane primitive computes a lane from that lane's values alone,
 * in a fixed order, so a lane's amplitudes and norms stay BITWISE
 * identical whatever the batch width and thread scheduling. The kernels
 * keep the same property (batched_kernels.h): a lane of a B-lane pass
 * equals a one-lane pass over that lane alone. Divergent per-lane events
 * (damping jumps, gate errors) are handled by extracting the lane to a
 * StateVector, running it through exec::apply_op (a one-lane pass of the
 * same kernels), and writing the lane back.
 *
 * The members check their arguments here and run their lane loops
 * (norm_sq_lane(s), fidelity_lanes and the apply_product_diag_lanes pass)
 * in batched_kernels.cc, which is built twice: the AVX2 build runs once
 * the CPU reports AVX2, the baseline otherwise (lane_kernels.h). The AVX2
 * build is compiled with -mavx2 alone and holds no fused multiply-add
 * (GCC 12 fuses complex multiplies with -mfma even under
 * -ffp-contract=off), so both builds give the same bits.
 */
#ifndef QDSIM_EXEC_BATCHED_STATE_H
#define QDSIM_EXEC_BATCHED_STATE_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "qdsim/basis.h"
#include "qdsim/state_vector.h"

namespace qd::exec {

/** Allocates on 64-byte (cache-line) boundaries, so a lane pass meets
 *  the same alignment whatever heap traffic ran before it. */
template <class T>
struct CacheAlignedAllocator {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    CacheAlignedAllocator() = default;
    template <class U>
    CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

    T* allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T* p, std::size_t) noexcept
    {
        ::operator delete(p, kAlign);
    }
    template <class U>
    bool operator==(const CacheAlignedAllocator<U>&) const noexcept
    {
        return true;
    }
};

/** B trajectory states over one register, lane-interleaved. */
class BatchedStateVector {
  public:
    /** All lanes initialised to |00...0>. `lanes` must be >= 1. */
    BatchedStateVector(WireDims dims, int lanes);

    const WireDims& dims() const { return dims_; }
    int lanes() const { return lanes_; }
    /** Amplitudes per lane (the register size, not the storage size). */
    Index size() const { return dims_.size(); }

    Complex* data() { return amps_.data(); }
    const Complex* data() const { return amps_.data(); }

    /** Overwrites one lane with `src` (dims must match). */
    void set_lane(int lane, const StateVector& src);

    /** Copies one lane into `dst` (dims must match). */
    void extract_lane(int lane, StateVector& dst) const;

    /** Squared norm of one lane, accumulated in amplitude-index order
     *  (the order norm_sq_lanes uses, so the two agree bitwise). */
    Real norm_sq_lane(int lane) const;

    /** Per-lane squared norms, accumulated in amplitude-index order. */
    std::vector<Real> norm_sq_lanes() const;

    /**
     * Per-lane product-of-per-wire-diagonals pass (batched coherent
     * dephasing kick): factors[lane][wire] has dim(wire) unit-modulus
     * entries. The wires split into a high and a low group (the low one
     * the least significant wires within sqrt(size) configurations), and
     * each lane gets one table per group: the products of its own factors
     * at every digit tuple of the group, multiplied in wire order. One pass
     * then scales amplitude h * L + l of each lane by hi[h] * lo[l], with
     * no serial dependence between amplitudes. A lane's result depends only
     * on its own factors, so it is bitwise the same at every batch width.
     * It equals the exact product up to rounding, and the rounding follows
     * this order: a dephased trial's values reproduce to the bit only with
     * the same tables and the same hi[h] * lo[l] product.
     *
     * @throws std::invalid_argument unless there is one factor list per
     *         lane, one vector per wire and dim(wire) entries in each
     *         (checked before any amplitude changes).
     */
    void apply_product_diag_lanes(
        const std::vector<std::vector<std::vector<Complex>>>& factors);

    /** Per-lane squared overlap |<this_b|other_b>|^2 (pure-state fidelity),
     *  lane b against lane b. Registers and lane counts must match. */
    std::vector<Real> fidelity_lanes(const BatchedStateVector& other) const;

  private:
    WireDims dims_;
    int lanes_ = 1;
    std::vector<Complex, CacheAlignedAllocator<Complex>> amps_;
};

}  // namespace qd::exec

#endif  // QDSIM_EXEC_BATCHED_STATE_H
