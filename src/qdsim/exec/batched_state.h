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
 * Every per-lane primitive replicates the arithmetic of its StateVector
 * counterpart operation-for-operation, in the same order, so a lane's
 * amplitudes stay BITWISE identical to an unbatched shot run with the same
 * RNG stream — results are independent of the batch width and of thread
 * scheduling. Divergent per-lane events (damping jumps, gate-error draws)
 * are handled by extracting the lane to a StateVector, running the existing
 * single-shot code, and writing the lane back.
 */
#ifndef QDSIM_EXEC_BATCHED_STATE_H
#define QDSIM_EXEC_BATCHED_STATE_H

#include <cstdint>
#include <vector>

#include "qdsim/basis.h"
#include "qdsim/state_vector.h"

namespace qd::exec {

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

    /** Amplitude `idx` of lane `lane`. */
    Complex& at(Index idx, int lane) {
        return amps_[static_cast<std::size_t>(idx) *
                         static_cast<std::size_t>(lanes_) +
                     static_cast<std::size_t>(lane)];
    }
    const Complex& at(Index idx, int lane) const {
        return amps_[static_cast<std::size_t>(idx) *
                         static_cast<std::size_t>(lanes_) +
                     static_cast<std::size_t>(lane)];
    }

    /** Overwrites one lane with `src` (dims must match). */
    void set_lane(int lane, const StateVector& src);

    /** Copies one lane into `dst` (dims must match). */
    void extract_lane(int lane, StateVector& dst) const;

    /** Materialises one lane as a standalone StateVector. */
    StateVector lane_state(int lane) const;

    /**
     * amps[idx] *= scale[key[idx]] on every lane in one pass; returns the
     * per-lane squared norms (same accumulation order as
     * StateVector::scale_by_table, so the values match an unbatched shot
     * bitwise). key.size() must equal size().
     */
    std::vector<Real> scale_by_table_lanes(
        const std::vector<std::uint16_t>& key,
        const std::vector<Real>& scale);

    /** Per-lane squared norms, accumulated in amplitude-index order. */
    std::vector<Real> norm_sq_lanes() const;

    /**
     * Normalises the lanes selected by `mask` (empty mask = every lane).
     * Returns one flag per lane: false iff the lane was selected and its
     * norm was zero or non-finite (such lanes are left untouched, matching
     * StateVector::normalize); deselected lanes report true.
     */
    std::vector<std::uint8_t> normalize_lanes(
        const std::vector<std::uint8_t>& mask = {});

    /**
     * Same, but reuses per-lane squared norms the caller already holds
     * (e.g. the return value of scale_by_table_lanes, which accumulates in
     * exactly the order a fresh recomputation would) instead of a fresh
     * O(size * lanes) pass. `norm_sq` must describe the CURRENT amplitudes;
     * results are bitwise identical to the recomputing overload.
     */
    std::vector<std::uint8_t> normalize_lanes_with(
        const std::vector<Real>& norm_sq,
        const std::vector<std::uint8_t>& mask);

    /** Per-lane per-level populations of `wire`, laid out as
     *  pops[level * lanes() + lane]; matches StateVector::populations
     *  bitwise per lane. */
    std::vector<Real> populations_lanes(int wire) const;

    /** Applies a single-wire diagonal to the lanes selected by `mask`
     *  (empty = all), skipping unit factors exactly like
     *  StateVector::apply_diag1. Used for the batched no-jump K0. */
    void apply_diag1_masked(const std::vector<Complex>& diag, int wire,
                            const std::vector<std::uint8_t>& mask = {});

    /**
     * Per-lane product-of-per-wire-diagonals pass (batched coherent
     * dephasing kick): factors[lane][wire] has dim(wire) unit-modulus
     * entries. One incremental odometer drives every lane, and each lane's
     * running factor is updated with exactly the quotients of
     * StateVector::apply_product_diag, each computed once per call.
     */
    void apply_product_diag_lanes(
        const std::vector<std::vector<std::vector<Complex>>>& factors);

    /** Per-lane squared overlap |<this_b|other_b>|^2 (pure-state fidelity),
     *  lane b against lane b. Registers and lane counts must match. */
    std::vector<Real> fidelity_lanes(const BatchedStateVector& other) const;

  private:
    WireDims dims_;
    int lanes_ = 1;
    std::vector<Complex> amps_;
};

}  // namespace qd::exec

#endif  // QDSIM_EXEC_BATCHED_STATE_H
