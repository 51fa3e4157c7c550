/**
 * @file
 * Deterministic random number generation for reproducible experiments.
 *
 * All randomness in the library flows through Rng so a single seed fully
 * determines workloads, synthetic models, and simulator decisions.
 * The generator is xoshiro256** (Blackman & Vigna), which is fast,
 * high-quality, and trivially seedable from a single 64-bit value.
 */

#ifndef LONGSIGHT_UTIL_RNG_HH
#define LONGSIGHT_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace longsight {

/**
 * A deterministic PRNG with convenience distributions.
 *
 * Copyable and cheap; pass by value to fork an independent-but-
 * deterministic stream, or by reference to share one stream.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of a single 64-bit value. */
    explicit Rng(uint64_t seed = 0x1005'51e5'eed5ULL);

    /** Next raw 64-bit output. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t below(uint64_t n);

    /** Standard normal via Box-Muller (cached second value). */
    double gaussian();

    /** A vector of n iid standard normals. */
    std::vector<float> gaussianVec(size_t n);

    /** Fisher-Yates shuffle of [0, n) indices. */
    std::vector<uint32_t> permutation(uint32_t n);

    /** Fork a new independent generator deterministically. */
    Rng fork();

  private:
    uint64_t s_[4];
    double cachedGaussian_ = 0.0;
    bool hasCachedGaussian_ = false;
};

} // namespace longsight

#endif // LONGSIGHT_UTIL_RNG_HH
