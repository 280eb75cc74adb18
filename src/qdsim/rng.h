/**
 * @file rng.h
 * Reproducible random-number generation for simulation trials.
 *
 * A thin wrapper over a 64-bit Mersenne Twister with helpers used by the
 * trajectory engine (weighted draws) and by Haar-random state generation.
 * Independent streams for parallel trials are derived with splitmix64 so
 * results are reproducible for a given master seed regardless of thread
 * scheduling.
 */
#ifndef QDSIM_RNG_H
#define QDSIM_RNG_H

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "qdsim/types.h"

namespace qd {

/** Deterministic stream-splitting hash (splitmix64). */
std::uint64_t splitmix64(std::uint64_t x);

/** Random source with convenience draws. */
class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Derives an independent child stream; child i of a given parent seed
     *  is deterministic. */
    Rng child(std::uint64_t stream) const;

    /** Uniform real in [0, 1). */
    Real uniform();

    /** Uniform integer in [0, n).
     *  @throws std::invalid_argument if n == 0 (an empty range used to
     *          underflow into a full-range 64-bit draw). */
    std::uint64_t uniform_int(std::uint64_t n);

    /** Standard normal draw. */
    Real gaussian();

    /** Standard complex Gaussian (independent real/imag N(0,1)). */
    Complex complex_gaussian();

    /**
     * Draws an index from unnormalised non-negative weights; an index of
     * zero weight is never drawn.
     * Returns std::nullopt when the weights are empty or their total is
     * zero (or negative): there is no valid arm to draw, and callers must
     * handle that explicitly. (Returning the last arm here used to let the
     * trajectory engine "draw" a zero-population damping jump from a
     * numerically-all-zero weight vector and die renormalising the
     * resulting zero state.) No randomness is consumed in that case.
     */
    std::optional<std::size_t> weighted_draw(const std::vector<Real>& weights);

    std::mt19937_64& engine() { return engine_; }

  private:
    std::uint64_t seed_;
    std::mt19937_64 engine_;
    std::normal_distribution<Real> normal_{0.0, 1.0};
};

}  // namespace qd

#endif  // QDSIM_RNG_H
