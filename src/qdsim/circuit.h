/**
 * @file circuit.h
 * Circuit IR: an ordered list of operations over a mixed-radix register,
 * with resource accounting (paper Section 2: circuit width and depth).
 */
#ifndef QDSIM_CIRCUIT_H
#define QDSIM_CIRCUIT_H

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "qdsim/gate.h"

namespace qd {

/**
 * An ordered quantum circuit over wires with per-wire dimensions.
 *
 * Depth is computed by the ASAP scheduler in moments.h; `Stats` aggregates
 * the counts the paper's figures report (total gates, two-qudit gates,
 * depth).
 */
class Circuit {
  public:
    Circuit() = default;
    explicit Circuit(WireDims dims) : dims_(std::move(dims)) {}

    const WireDims& dims() const { return dims_; }
    int num_wires() const { return dims_.num_wires(); }

    const std::vector<Operation>& ops() const { return ops_; }
    std::size_t num_ops() const { return ops_.size(); }
    bool empty_circuit() const { return ops_.empty(); }

    /**
     * Appends a gate on the given wires. Validates distinctness and
     * dimension agreement between the gate's operands and the wires.
     */
    void append(const Gate& gate, const std::vector<int>& wires);

    /** Appends all operations of another circuit over the same register. */
    void extend(const Circuit& other);

    /** Circuit applying the inverse operations in reverse order. */
    Circuit inverse() const;

    // ------------------------------------------------- mutation (transpile)
    //
    // The rewriting passes in src/transpile/ edit circuits in place. All
    // mutators validate the same invariants as append(): distinct in-range
    // wires and gate/wire dimension agreement.

    /** Removes the operation at `index`. */
    void erase_op(std::size_t index);

    /**
     * Removes the operations at the given indices (any order, duplicates
     * ignored). Remaining operations keep their relative order.
     */
    void erase_ops(std::vector<std::size_t> indices);

    /** Replaces the operation at `index` with a new gate/wire binding. */
    void replace_op(std::size_t index, const Gate& gate,
                    const std::vector<int>& wires);

    /** Inserts an operation before `index` (index == num_ops() appends). */
    void insert_op(std::size_t index, const Gate& gate,
                   const std::vector<int>& wires);

    /**
     * Replaces the operation at `index` with the operations of
     * `replacement`, whose wire w is mapped to this circuit's wire
     * `wire_map[w]`. Used by decomposition passes to splice a gate's
     * expansion into the surrounding circuit.
     */
    void splice(std::size_t index, const Circuit& replacement,
                const std::vector<int>& wire_map);

    /**
     * Rebuilds the circuit over a register with different wire dimensions.
     * `adapt` maps each original gate to its counterpart on the new
     * dimensions (called once per distinct gate payload; results are
     * validated against `new_dims` on append). Wire indices are preserved.
     * This is the hook the qubit->qutrit dimension-lifting pass uses.
     */
    Circuit redimensioned(
        const WireDims& new_dims,
        const std::function<Gate(const Gate&)>& adapt) const;

    /** Resource statistics used throughout the evaluation. */
    struct Stats {
        std::size_t total_gates = 0;
        std::size_t one_qudit = 0;
        std::size_t two_qudit = 0;
        std::size_t three_plus_qudit = 0;
        int depth = 0;  ///< critical path length in moments
    };
    Stats stats() const;

    /** Number of two-qudit gates (the paper's Figure 10 metric). */
    std::size_t two_qudit_count() const;

    /** Critical path length in gate moments (the Figure 9 metric). */
    int depth() const;

    /** Single-line textual summary (name, width, counts, depth). */
    std::string summary(const std::string& label = "") const;

  private:
    void validate_op(const Gate& gate, const std::vector<int>& wires) const;

    WireDims dims_;
    std::vector<Operation> ops_;
};

/**
 * The inverse pairs of ops[first, ops.size()) over a `num_wires`-wire
 * register: the one rule CancelInversePairs and ctor::cancel_inverse_pairs
 * erase by and verify's dead.inverse-pair reports by. Op j pairs with op
 * i < j when i is the latest live op on every wire of j, acts on the same
 * wires in the same operand order, and gate_j * gate_i is the identity up
 * to global phase within `tol`; both then stop being live. A pair can
 * expose an outer one (A B B^dagger A^dagger yields two pairs), and an op
 * pairs at most once (H H H yields one). Ops with an empty gate, no wires
 * or a wire outside the register neither pair nor block. Returns (i, j)
 * in the order found, by ascending j.
 */
std::vector<std::pair<std::size_t, std::size_t>> inverse_pairs(
    std::span<const Operation> ops, int num_wires, Real tol,
    std::size_t first = 0);

}  // namespace qd

#endif  // QDSIM_CIRCUIT_H
