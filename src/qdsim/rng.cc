#include "qdsim/rng.h"

#include <stdexcept>

namespace qd {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

Rng
Rng::child(std::uint64_t stream) const
{
    return Rng(splitmix64(seed_ ^ splitmix64(stream + 0x517CC1B727220A95ull)));
}

Real
Rng::uniform()
{
    return std::uniform_real_distribution<Real>(0.0, 1.0)(engine_);
}

std::uint64_t
Rng::uniform_int(std::uint64_t n)
{
    if (n == 0) {
        throw std::invalid_argument("Rng::uniform_int: empty range (n == 0)");
    }
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
}

Real
Rng::gaussian()
{
    return normal_(engine_);
}

Complex
Rng::complex_gaussian()
{
    const Real re = normal_(engine_);
    const Real im = normal_(engine_);
    return Complex(re, im);
}

std::optional<std::size_t>
Rng::weighted_draw(const std::vector<Real>& weights)
{
    Real total = 0;
    for (const Real w : weights) {
        total += w;
    }
    if (total <= 0) {
        return std::nullopt;
    }
    // u lies in [0, total): an arm is hit while u falls below zero, so a
    // zero weight can never be drawn, not even at u == 0; rounding that
    // leaves u >= 0 past the end draws the last non-zero arm.
    Real u = uniform() * total;
    std::size_t last = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] > 0) {
            last = i;
            u -= weights[i];
            if (u < 0) {
                return i;
            }
        }
    }
    return last;
}

}  // namespace qd
