/**
 * @file state_vector.h
 * Dense mixed-radix state vector with Einstein-summation-style k-local
 * operator application.
 *
 * This is the workhorse of the simulator (paper Section 6.2): gates are
 * applied by gathering/scattering the d^k amplitudes of each operand block,
 * never materialising the d^N x d^N circuit matrix. Memory and time per gate
 * are O(d^N * d^k).
 */
#ifndef QDSIM_STATE_VECTOR_H
#define QDSIM_STATE_VECTOR_H

#include <span>
#include <vector>

#include "qdsim/basis.h"
#include "qdsim/matrix.h"

namespace qd {

/**
 * State vector over a mixed-radix register.
 *
 * Amplitudes are stored densely indexed per WireDims. Supports application
 * of arbitrary (not necessarily unitary) k-local operators, which the noise
 * engine uses for Kraus jump operators followed by renormalisation.
 */
class StateVector {
  public:
    /** Initialises to |00...0>. */
    explicit StateVector(WireDims dims);

    /** Initialises to the classical basis state given by `digits`. */
    StateVector(WireDims dims, const std::vector<int>& digits);

    const WireDims& dims() const { return dims_; }
    Index size() const { return dims_.size(); }

    Complex& operator[](Index i) { return amps_[i]; }
    const Complex& operator[](Index i) const { return amps_[i]; }
    const std::vector<Complex>& amplitudes() const { return amps_; }
    std::vector<Complex>& amplitudes() { return amps_; }

    /**
     * Applies a k-local operator to the given wires.
     *
     * @param op    A (prod dims of wires) square matrix in the basis ordered
     *              with wires[0] as the most significant digit.
     * @param wires Distinct wire indices the operator acts on.
     * @throws std::invalid_argument if the operator size does not match the
     *         operand dims, or if wires are out of range or not distinct
     *         (a duplicate wire would silently corrupt the state).
     */
    void apply(const Matrix& op, std::span<const int> wires);

    /** <this|other>; registers must have equal dims. */
    Complex inner(const StateVector& other) const;

    /** L2 norm. */
    Real norm() const;

    /**
     * Scales amplitudes so norm() == 1. Returns false — leaving the state
     * untouched — when the norm is zero or non-finite, which signals a
     * fully-damped or otherwise invalid state; callers that cannot
     * tolerate that (e.g. trajectory jump branches) must check the
     * result instead of silently continuing with an unnormalised state.
     */
    [[nodiscard]] bool normalize();

    /** Probability that `wire` is measured in `level`:
     *  sum of |amp|^2 over basis states with that digit. */
    Real population(int wire, int level) const;

    /** Per-level populations of a wire (length dim(wire), sums to norm^2). */
    std::vector<Real> populations(int wire) const;

    /** Squared overlap |<this|other>|^2, the fidelity for pure states. */
    Real fidelity(const StateVector& other) const;

  private:
    WireDims dims_;
    std::vector<Complex> amps_;
};

}  // namespace qd

#endif  // QDSIM_STATE_VECTOR_H
