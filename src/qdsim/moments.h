/**
 * @file moments.h
 * ASAP moment scheduling (paper Section 6.1, Figure 8).
 *
 * A Moment is a set of operations on disjoint wires executed simultaneously.
 * Algorithm 1 charges every wire idle noise for each moment's duration,
 * which depends on whether the moment contains a multi-qudit gate
 * (two-qudit gates are slower than single-qudit gates). The noise engines
 * read that charge from one placement, noise/error_placement.h's
 * idle_stretches, which sums each wire's moments between two of its ops
 * into one idle stretch.
 */
#ifndef QDSIM_MOMENTS_H
#define QDSIM_MOMENTS_H

#include <vector>

#include "qdsim/circuit.h"

namespace qd {

/** One time slice of simultaneously executing operations. */
struct Moment {
    /** Indices into Circuit::ops(). */
    std::vector<std::size_t> op_indices;
    /** True if any gate in the moment acts on >= 2 wires. */
    bool has_multi_qudit = false;
};

/**
 * Greedy as-soon-as-possible schedule: each operation is placed in the
 * earliest moment after the last use of any of its wires (Cirq's
 * EARLIEST strategy, which the paper's simulator uses).
 */
std::vector<Moment> schedule_asap(const Circuit& circuit);

/** Critical-path length of the circuit in moments. */
int circuit_depth(const Circuit& circuit);

}  // namespace qd

#endif  // QDSIM_MOMENTS_H
