#include "tensor/softmax.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace longsight {

void
softmaxInPlace(std::vector<float> &scores)
{
    softmaxInPlace(scores.data(), scores.size());
}

void
softmaxInPlace(float *scores, size_t n)
{
    if (n == 0)
        return;
    float mx = -std::numeric_limits<float>::infinity();
    for (size_t i = 0; i < n; ++i)
        mx = std::max(mx, scores[i]);
    double denom = 0.0;
    for (size_t i = 0; i < n; ++i) {
        scores[i] = std::exp(scores[i] - mx);
        denom += scores[i];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (size_t i = 0; i < n; ++i)
        scores[i] *= inv;
}

} // namespace longsight
