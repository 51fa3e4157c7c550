#include "tensor/quantized.hh"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hh"
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

QuantizedVector
quantizeInt8(const float *v, size_t n)
{
    LS_ASSERT(n > 0, "empty vector quantization");
    QuantizedVector q;
    // LS_LINT_ALLOW(alloc): per-append row buffer the quantized store keeps
    q.data.resize(n);
    quantizeInt8Into(v, n, q.data.data(), &q.scale);
    return q;
}

std::vector<float>
dequantize(const QuantizedVector &q)
{
    std::vector<float> out(q.data.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<float>(q.data[i]) * q.scale;
    return out;
}

float
dotQuantized(const QuantizedVector &q, const float *b)
{
    return dotQuantized(q.data.data(), q.scale, b, q.data.size());
}

float
dotQuantized(const int8_t *data, float scale, const float *b, size_t n)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    // Routed through the kernel-dispatch layer (the quantDotAt op) so
    // backend selection applies here like everywhere else; the
    // single-row call is the degenerate range [0, 1) with a unit
    // post-scale (x * 1.0f is exact). Every backend reproduces the
    // historical rounding: ascending double accumulation, one double
    // multiply by scale, one cast to float.
    float out = 0.0f;
    batchQuantDotRange(b, data, &scale, n, 0, 1, 1.0f, &out);
    return out;
}

double
quantizationError(const Matrix &rows)
{
    double total = 0.0;
    for (size_t r = 0; r < rows.rows(); ++r) {
        const QuantizedVector q = quantizeInt8(rows.row(r), rows.cols());
        const auto back = dequantize(q);
        double err = 0.0, ref = 0.0;
        for (size_t i = 0; i < back.size(); ++i) {
            const double d =
                static_cast<double>(back[i]) - rows.row(r)[i];
            err += d * d;
            ref += static_cast<double>(rows.row(r)[i]) * rows.row(r)[i];
        }
        total += ref > 0 ? std::sqrt(err / ref) : 0.0;
    }
    return total / static_cast<double>(rows.rows());
}

} // namespace longsight
