/**
 * @file peephole.h
 * Builder-local dead-gate cleanup.
 *
 * The decomposed constructions stitch sub-decompositions together, and the
 * seams leave cancelling debris: the |0>-control X01 sandwich of one tree
 * Toffoli closing right where the next one opens, or the trailing H of one
 * qubit Toffoli meeting the leading H of its successor on the same target.
 * verify's dead.inverse-pair rule flags exactly these, so the builders
 * remove them at emission time with this helper instead of shipping work
 * for the transpiler's CancelInversePairs pass to redo. All three find
 * their pairs through qd::inverse_pairs (circuit.h); each keeps its own
 * tolerance.
 *
 * Restricted to the suffix a builder just appended so callers' prefixes
 * are never rewritten.
 */
#ifndef CONSTRUCTIONS_PEEPHOLE_H
#define CONSTRUCTIONS_PEEPHOLE_H

#include <cstddef>

#include "qdsim/circuit.h"

namespace qd::ctor {

/**
 * Erases the inverse pairs of circuit ops [first_op, num_ops()) that
 * qd::inverse_pairs (circuit.h) finds at kLooseTol, cascades included.
 * Preserves the circuit unitary up to global phase; returns the number of
 * pairs removed.
 */
std::size_t cancel_inverse_pairs(Circuit& circuit, std::size_t first_op = 0);

}  // namespace qd::ctor

#endif  // CONSTRUCTIONS_PEEPHOLE_H
