/**
 * @file gate.h
 * Immutable gate flyweight: unitary matrix, operand dimensions, and an
 * optional classical (permutation) action.
 *
 * The classical action is the key to the paper's fast verification path
 * (Section 6): circuits built purely from permutation gates (X01, X+1,
 * controlled variants, ...) can be verified on classical basis inputs in
 * O(width) per input rather than O(d^N).
 */
#ifndef QDSIM_GATE_H
#define QDSIM_GATE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qdsim/basis.h"
#include "qdsim/matrix.h"

namespace qd {

/**
 * Structure of a gate that acts as an inner operator on its trailing
 * operands iff each of the first `num_controls` operands holds a fixed
 * activation value, and as the identity otherwise. Detected from the matrix
 * at construction; the execution engine's controlled-subspace kernel uses
 * it to touch only the amplitudes where the controls are active.
 */
struct ControlledStructure {
    int num_controls = 0;
    /** Activation level of each leading (control) operand. */
    std::vector<int> control_values;
    /** The operator applied to the trailing operands when active. */
    Matrix inner;
};

/**
 * A k-local gate on operands with given dimensions.
 *
 * Gates have value semantics but share an immutable payload, so copies are
 * cheap and circuits can hold millions of operations.
 */
class Gate {
  public:
    Gate() = default;

    /**
     * Creates a gate from its unitary. If the matrix is a permutation matrix
     * (entries 0/1), a classical action is derived automatically.
     *
     * @param name Human-readable name used in rendering and debugging.
     * @param dims Per-operand dimensions; matrix must be square of size
     *             prod(dims).
     * @param matrix The unitary, operand 0 most significant.
     */
    Gate(std::string name, std::vector<int> dims, Matrix matrix);

    /** True if default-constructed. */
    bool empty() const { return payload_ == nullptr; }

    const std::string& name() const { return payload_->name; }
    int arity() const { return static_cast<int>(payload_->dims.size()); }
    const std::vector<int>& dims() const { return payload_->dims; }
    const Matrix& matrix() const { return payload_->matrix; }

    /** Product of operand dimensions. */
    Index block_size() const {
        return static_cast<Index>(payload_->matrix.rows());
    }

    /** True if this gate acts as a classical permutation on basis states. */
    bool is_permutation() const { return payload_->perm.has_value(); }

    /** Classical action: local basis index in, local basis index out.
     *  Only valid if is_permutation(). */
    Index permute(Index local_in) const {
        return (*payload_->perm)[local_in];
    }

    /** True if the matrix is diagonal (phase-only gates). */
    bool is_diagonal_gate() const { return payload_->diagonal; }

    /**
     * True if the matrix was recognised as identity-except-one-control-
     * subspace (see ControlledStructure). Only derived for non-permutation,
     * non-diagonal gates of arity >= 2, where the specialized kernels
     * cannot already exploit a cheaper structure.
     */
    bool has_controlled_structure() const {
        return payload_->ctrl.has_value();
    }

    /** Cached controlled structure; only valid if
     *  has_controlled_structure(). */
    const ControlledStructure& controlled_structure() const {
        return *payload_->ctrl;
    }

    /**
     * Digest of the matrix: its size and the bit pattern of every entry
     * (name and dims excluded), the per-op term of ir::circuit_hash.
     * Computed on the first call and cached in the shared payload, so
     * copies share it and gates that are only built and probed (the
     * fusion look-ahead's candidate blocks) never pay for it. Safe to
     * call from several threads at once.
     */
    std::uint64_t digest() const;

    /** True if both gates are copies of one gate (one shared payload). */
    bool same_payload(const Gate& other) const {
        return payload_ == other.payload_;
    }

    /** Address of the shared payload: equal for copies of one gate and
     *  distinct between live gates, so it can key per-gate memos. */
    const void* payload_id() const { return payload_.get(); }

    /** Gate with the adjoint unitary. */
    Gate inverse() const;

    /**
     * Controlled version of this gate. Controls are prepended as the first
     * operands; the gate applies iff control i is in basis state values[i].
     *
     * @param control_dims   Dimension of each control wire.
     * @param control_values Activation level of each control
     *                       (0 <= value < dim). This models the paper's
     *                       coloured controls: |1>-controls and |2>-controls.
     */
    Gate controlled(const std::vector<int>& control_dims,
                    const std::vector<int>& control_values) const;

    /** Single-control convenience overload. */
    Gate controlled(int control_dim, int control_value) const;

  private:
    struct Payload {
        std::string name;
        std::vector<int> dims;
        Matrix matrix;
        std::optional<std::vector<Index>> perm;
        bool diagonal = false;
        std::optional<ControlledStructure> ctrl;
        /** digest(), or 0 until first asked for. */
        mutable std::atomic<std::uint64_t> digest{0};
    };

    std::shared_ptr<const Payload> payload_;
};

/** An operation = gate + the wires it acts on (in gate operand order). */
struct Operation {
    Gate gate;
    std::vector<int> wires;
};

}  // namespace qd

#endif  // QDSIM_GATE_H
