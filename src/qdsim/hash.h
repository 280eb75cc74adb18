/**
 * @file hash.h
 * Streaming 64-bit content hash for in-process cache keys.
 *
 * Four xxHash64-style lanes take words round-robin, so a long input runs
 * at several bytes per cycle instead of one dependent multiply chain per
 * word; `finish` folds the lanes and the word count through splitmix64's
 * finalizer. Not cryptographic and not stable across byte orders: both
 * consumers (Gate::digest and ir::circuit_hash, the CompileService key)
 * break ties by comparing the hashed content itself, and no hash is ever
 * persisted.
 */
#ifndef QDSIM_HASH_H
#define QDSIM_HASH_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace qd {

class Hasher {
  public:
    explicit Hasher(std::uint64_t seed = 0)
        : lane_{seed + kP1 + kP2, seed + kP2, seed, seed - kP1} {}

    void add(std::uint64_t word)
    {
        std::uint64_t& lane = lane_[count_ & 3];
        lane = std::rotl(lane + word * kP2, 31) * kP1;
        ++count_;
    }

    /** Adds `n` bytes, 8 at a time (the tail zero-padded, so inputs of
     *  different lengths differ through the word count in `finish`). */
    void add_bytes(const void* data, std::size_t n)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (; n >= 8; p += 8, n -= 8) {
            std::uint64_t w;
            std::memcpy(&w, p, 8);
            add(w);
        }
        if (n != 0) {
            std::uint64_t w = 0;
            std::memcpy(&w, p, n);
            add(w ^ (std::uint64_t{n} << 56));
        }
    }

    std::uint64_t finish() const
    {
        std::uint64_t h = std::rotl(lane_[0], 1) + std::rotl(lane_[1], 7) +
                          std::rotl(lane_[2], 12) + std::rotl(lane_[3], 18) +
                          count_;
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
        h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
        return h ^ (h >> 31);
    }

  private:
    static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
    static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;

    std::uint64_t lane_[4];
    std::uint64_t count_ = 0;
};

}  // namespace qd

#endif  // QDSIM_HASH_H
