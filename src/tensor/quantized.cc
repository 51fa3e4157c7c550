#include "tensor/quantized.hh"

#include <algorithm>
#include <cmath>

#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {

void
quantizeInt8Into(const float *v, size_t n, int8_t *out, float *scale)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(n > 0, "empty vector quantization");
    float max_abs = 0.0f;
    for (size_t i = 0; i < n; ++i)
        max_abs = std::max(max_abs, std::abs(v[i]));

    if (max_abs == 0.0f) {
        *scale = 1.0f;
        for (size_t i = 0; i < n; ++i)
            out[i] = 0;
        return;
    }
    *scale = max_abs / 127.0f;
    const float inv = 127.0f / max_abs;
    for (size_t i = 0; i < n; ++i) {
        const float r = std::round(v[i] * inv);
        out[i] = static_cast<int8_t>(std::clamp(r, -127.0f, 127.0f));
    }
}

} // namespace longsight
