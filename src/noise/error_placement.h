/**
 * @file error_placement.h
 * Shared noise placement policy for the noise engines (paper Section
 * 6.1, Algorithm 1).
 *
 * The trajectory engine (trajectory.cc) and the exact density-matrix
 * engine (density_matrix.cc) must attach every channel to exactly the
 * same operands with exactly the same parameters — the convergence tests
 * compare the two. This module is the single source of truth for that
 * placement:
 *  - Gate errors: one-qudit gates get one single-qudit channel, two-qudit
 *    gates one two-qudit channel, and wider (undecomposed) gates a
 *    conservative independent two-qudit channel per adjacent operand pair.
 *  - Idle noise: Algorithm 1 charges every wire each ASAP moment's
 *    duration. Amplitude damping and Gaussian dephasing compose exactly
 *    over time and act on one wire, so they commute with everything on
 *    other wires: a wire's idle time between two of its ops is one
 *    stretch, charged just before the later op, and its idle time after
 *    its last op one stretch at the end. No other code schedules it.
 */
#ifndef NOISE_ERROR_PLACEMENT_H
#define NOISE_ERROR_PLACEMENT_H

#include <cstdint>
#include <vector>

#include "noise/noise_model.h"
#include "qdsim/circuit.h"
#include "qdsim/moments.h"

namespace qd::noise {

/** One depolarizing channel attached to a gate application site. */
struct ErrorSite {
    /** Register wires the channel acts on (1 or 2 of them). */
    std::vector<int> wires;
    /** Dimensions of those wires (operand order). */
    std::vector<int> dims;
    /** Per-channel probability (feed to depolarizing1/depolarizing2). */
    Real per_channel = 0;
};

/**
 * Enumerates the error channels each operation draws under `model`.
 * Entry i lists the sites of circuit.ops()[i] (empty when the model's
 * corresponding gate-error probability is zero).
 */
std::vector<std::vector<ErrorSite>> enumerate_error_sites(
    const Circuit& circuit, const NoiseModel& model);

/**
 * Fusion fences derived from the error placement: entry i is non-zero
 * iff operation i draws at least one channel, so the compile-time fusion
 * stage (exec/fusion.h) pins that op's trailing boundary and the channel
 * keeps its pre-fusion attachment point. Admission audits the partition
 * these fences give; the density engine adds a fence before every op
 * that ends a non-zero idle stretch, and the trajectory engine attaches
 * each error to its source op instead.
 */
std::vector<std::uint8_t> error_fences(
    const std::vector<std::vector<ErrorSite>>& sites);

/** A circuit's idle noise by stretch (see the file doc). */
struct IdleStretches {
    /** The ASAP moments (schedule_asap) and each one's duration. */
    std::vector<Moment> moments;
    std::vector<Real> durations;
    /** before[i][j]: the idle time of operand j of circuit.ops()[i] that
     *  ends at op i — from the moment of the wire's previous op (that
     *  moment included), or from the start, to op i's moment. */
    std::vector<std::vector<Real>> before;
    /** Per wire: its idle time from its last op's moment (included) to
     *  the end; the whole circuit for a wire no op touches. */
    std::vector<Real> trailing;
};

/**
 * Places `model`'s idle noise on `circuit`. A stretch sums its moments'
 * durations in moment order; every duration and stretch is 0 when the
 * model has no idle noise.
 *
 * @throws std::invalid_argument if the model has idle noise (damping or
 *         dephasing) and dt_1q or dt_2q is negative.
 */
IdleStretches idle_stretches(const Circuit& circuit, const NoiseModel& model);

}  // namespace qd::noise

#endif  // NOISE_ERROR_PLACEMENT_H
