#include "model/rope.hh"

#include <cmath>

#include "util/logging.hh"

namespace longsight {

Rope::Rope(uint32_t head_dim, double theta_base) : headDim_(head_dim)
{
    LS_ASSERT(head_dim % 2 == 0, "RoPE requires an even head dim, got ",
              head_dim);
    const uint32_t half = head_dim / 2;
    invFreq_.resize(half);
    for (uint32_t i = 0; i < half; ++i)
        invFreq_[i] = 1.0 /
            std::pow(theta_base, (2.0 * i) / static_cast<double>(head_dim));
}

void
Rope::apply(float *v, uint64_t position) const
{
    const uint32_t half = headDim_ / 2;
    for (uint32_t i = 0; i < half; ++i) {
        const double angle = static_cast<double>(position) * invFreq_[i];
        const float c = static_cast<float>(std::cos(angle));
        const float s = static_cast<float>(std::sin(angle));
        const float lo = v[i];
        const float hi = v[i + half];
        v[i] = lo * c - hi * s;
        v[i + half] = lo * s + hi * c;
    }
}

} // namespace longsight
