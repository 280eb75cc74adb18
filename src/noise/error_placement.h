/**
 * @file error_placement.h
 * Shared gate-error placement policy for the noise engines.
 *
 * The trajectory engine (trajectory.cc) and the exact density-matrix
 * engine (density_matrix.cc) must attach depolarizing error channels to
 * exactly the same operands with exactly the same probabilities — the
 * convergence tests compare the two. This module is the single source of
 * truth for that placement: one-qudit gates get one single-qudit channel,
 * two-qudit gates one two-qudit channel, and wider (undecomposed) gates a
 * conservative independent two-qudit channel per adjacent operand pair.
 */
#ifndef NOISE_ERROR_PLACEMENT_H
#define NOISE_ERROR_PLACEMENT_H

#include <cstdint>
#include <vector>

#include "noise/noise_model.h"
#include "qdsim/circuit.h"

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
 * keeps its pre-fusion attachment point. The density engine fences its
 * gates with these, and admission audits the fenced partition; the
 * trajectory engine attaches each error to its source op instead.
 */
std::vector<std::uint8_t> error_fences(
    const std::vector<std::vector<ErrorSite>>& sites);

}  // namespace qd::noise

#endif  // NOISE_ERROR_PLACEMENT_H
