/**
 * @file passes.h
 * Concrete circuit rewriting passes.
 *
 * Together with LiftQubitsToQutrits (lift.h) these form the paper's
 * qubit-circuit -> qutrit-circuit rewriting flow:
 *
 *   lift-qubits-to-qutrits  ->  substitute-toffoli  ->
 *   cancel-inverse-pairs    ->  fuse-single-qudit   ->  compact-moments
 *
 * which replaces every Toffoli of a binary circuit by the paper's
 * constant-depth three-gate qutrit construction (Figure 4) and then cleans
 * up the debris, reducing two-qudit gate count and depth versus the
 * standard 6-CNOT qubit decomposition.
 */
#ifndef TRANSPILE_PASSES_H
#define TRANSPILE_PASSES_H

#include "transpile/pass.h"

namespace qd::transpile {

/**
 * Merges runs of adjacent single-qudit gates on the same wire into one
 * gate by matrix product ("adjacent" = no intervening multi-qudit gate on
 * that wire). Products equal to the identity up to global phase are
 * dropped entirely. Preserves the circuit unitary up to global phase.
 */
class FuseSingleQuditGates : public Pass {
  public:
    std::string name() const override { return "fuse-single-qudit"; }
    Circuit run(const Circuit& circuit) const override;
};

/**
 * Removes adjacent gate pairs G, G' acting on the same wires (in the same
 * operand order) whose product is the identity up to global phase — e.g.
 * G' = G^dagger, or X followed by X. Works for any arity, including the
 * two-qudit gates the paper counts. Cancellation cascades: removing an
 * inner pair can expose an outer pair (A B B^dagger A^dagger -> empty).
 * The pairs are qd::inverse_pairs (circuit.h) at the passes' 1e-9
 * tolerance, the rule verify's dead.inverse-pair reports by.
 * Preserves the circuit unitary up to global phase.
 */
class CancelInversePairs : public Pass {
  public:
    std::string name() const override { return "cancel-inverse-pairs"; }
    Circuit run(const Circuit& circuit) const override;
};

/**
 * Rewrites the operation list in ASAP moment order (moments.h), so that
 * simultaneously executable gates are contiguous. The op order becomes the
 * canonical schedule order; depth and the unitary are unchanged (depth is
 * invariant because the ASAP schedule itself is recomputed from wire
 * dependencies, which this reorder preserves).
 */
class CompactMoments : public Pass {
  public:
    std::string name() const override { return "compact-moments"; }
    Circuit run(const Circuit& circuit) const override;
};

/**
 * Replaces every lifted Toffoli — a three-qutrit gate whose matrix is the
 * qubit CCX embedded in the qubit subspace (what LiftQubitsToQutrits
 * produces from a native CCX, or equivalently embed(X,3) controlled on
 * |1>,|1>) — with the paper's Figure 4 construction: three two-qutrit
 * gates using |2> as temporary storage.
 *
 * Preserves the qubit-subspace action (equivalence.h:
 * equal_on_qubit_subspace); the full 27-dimensional unitary differs on
 * inputs containing |2>, which lifted circuits never populate.
 */
class SubstituteToffoli : public Pass {
  public:
    std::string name() const override { return "substitute-toffoli"; }
    Circuit run(const Circuit& circuit) const override;
};

}  // namespace qd::transpile

#endif  // TRANSPILE_PASSES_H
