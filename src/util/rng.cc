#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace longsight {

namespace {

/** SplitMix64 step, used only for seeding. */
uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
    // xoshiro must not be seeded with the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 bits of mantissa from the top of the output.
    return (next() >> 11) * 0x1.0p-53;
}

uint64_t
Rng::below(uint64_t n)
{
    LS_ASSERT(n > 0, "Rng::below(0) is meaningless");
    // Rejection sampling to remove modulo bias.
    const uint64_t threshold = -n % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

double
Rng::gaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian_ = r * std::sin(theta);
    hasCachedGaussian_ = true;
    return r * std::cos(theta);
}

std::vector<float>
Rng::gaussianVec(size_t n)
{
    // LS_LINT_ALLOW(alloc): bulk sampling helper returns fresh storage
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(gaussian());
    return v;
}

std::vector<uint32_t>
Rng::permutation(uint32_t n)
{
    std::vector<uint32_t> p(n);
    for (uint32_t i = 0; i < n; ++i)
        p[i] = i;
    for (uint32_t i = n; i > 1; --i) {
        uint32_t j = static_cast<uint32_t>(below(i));
        std::swap(p[i - 1], p[j]);
    }
    return p;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xda3e'39cb'94b9'5bdbULL);
}

} // namespace longsight
