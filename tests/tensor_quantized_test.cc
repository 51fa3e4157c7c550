/**
 * @file
 * Tests for symmetric INT8 quantization (quantizeInt8Into), the exact
 * int8 x int8 estimation dot built on it, and the DReX timing model's
 * INT8 Key/Value Objects, which count bytes only.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "drex/drex_device.hh"
#include "tensor/kernels.hh"
#include "tensor/linalg.hh"
#include "tensor/quantized.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

struct Int8Row
{
    std::vector<int8_t> data;
    float scale = 0.0f;
};

Int8Row
quantize(const std::vector<float> &v)
{
    Int8Row q;
    q.data.resize(v.size());
    quantizeInt8Into(v.data(), v.size(), q.data.data(), &q.scale);
    return q;
}

TEST(Quantized, RoundTripErrorBounded)
{
    Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const auto v = rng.gaussianVec(64);
        const Int8Row q = quantize(v);
        for (size_t i = 0; i < v.size(); ++i)
            EXPECT_NEAR(q.data[i] * q.scale, v[i], q.scale * 0.5 + 1e-6);
    }
}

TEST(Quantized, MaxAbsElementMapsToFullRange)
{
    std::vector<float> v{0.5f, -2.0f, 1.0f, 0.0f};
    const Int8Row q = quantize(v);
    EXPECT_FLOAT_EQ(q.scale, 2.0f / 127.0f);
    EXPECT_EQ(q.data[1], -127);
    EXPECT_EQ(q.data[3], 0);
    for (int8_t b : q.data) {
        EXPECT_GE(b, -127);
        EXPECT_LE(b, 127);
    }
}

TEST(Quantized, ZeroVectorSafe)
{
    const Int8Row q = quantize(std::vector<float>(16, 0.0f));
    EXPECT_EQ(q.scale, 1.0f);
    for (int8_t b : q.data)
        EXPECT_EQ(b, 0);
}

TEST(Quantized, ErrorSmallForGaussians)
{
    Rng rng(3);
    double total = 0.0;
    for (int r = 0; r < 100; ++r) {
        const auto v = rng.gaussianVec(64);
        const Int8Row q = quantize(v);
        double err = 0.0, ref = 0.0;
        for (size_t i = 0; i < v.size(); ++i) {
            const double d = q.data[i] * static_cast<double>(q.scale) - v[i];
            err += d * d;
            ref += static_cast<double>(v[i]) * v[i];
        }
        total += std::sqrt(err / ref);
    }
    EXPECT_LT(total / 100.0, 0.02);
}

TEST(Quantized, Int8EstimateCloseToFullPrecisionDot)
{
    // The evaluator's INT8 estimation: both sides quantized, the exact
    // integer dot rescaled by the two scales.
    Rng rng(2);
    const size_t n = 128;
    for (int trial = 0; trial < 10; ++trial) {
        const auto a = rng.gaussianVec(n);
        const auto b = rng.gaussianVec(n);
        const Int8Row qa = quantize(a), qb = quantize(b);
        int32_t acc = 0;
        batchInt8DotRange(qa.data.data(), qb.data.data(), n, 0, 1, &acc);
        const float approx = static_cast<float>(acc) * qa.scale * qb.scale;
        EXPECT_NEAR(approx, dot(a.data(), b.data(), n),
                    0.05f * std::sqrt(static_cast<float>(n)));
    }
}

TEST(QuantizedNma, ScatteredFetchesSeeNoSpeedupButCxlPayloadHalves)
{
    // Architectural insight the ablation documents: scattered survivor
    // reads pay full DRAM burst granularity, so INT8 keys do not
    // accelerate the scoring fetch — but the CXL value payload (the
    // short-context bottleneck, Fig. 8) is nearly halved.
    DrexConfig dc;
    dc.numKvHeads = 1;
    dc.numLayers = 1;
    dc.headDim = 128;
    DrexDevice full_dev(dc), quant_dev(dc);
    OffloadSpec spec;
    spec.sparseEnd = 100'000;
    spec.survivorFraction = 0.2;
    OffloadSpec qspec = spec;
    qspec.quantizedScoring = true;
    const auto rf = full_dev.nma(0).process(0, spec);
    const auto rq = quant_dev.nma(0).process(0, qspec);
    EXPECT_EQ(rq.timing.score, rf.timing.score);
    EXPECT_LT(rq.valueBytes, 2 * rf.valueBytes / 3);
}

TEST(QuantizedNmaDeathTest, FunctionalOffloadIsRejected)
{
    // INT8 Key Objects are a byte model; a functional offload scores
    // full-precision keys and must not pretend otherwise.
    DrexConfig dc;
    dc.numKvHeads = 1;
    dc.numLayers = 1;
    dc.headDim = 64;
    DrexDevice dev(dc);
    Rng rng(8);
    const Matrix keys(300, 64, rng.gaussianVec(300 * 64));
    const Matrix values(300, 64, rng.gaussianVec(300 * 64));
    const KvCache &cache = dev.writeContext(0, 0, 0, keys, values);
    const Matrix q(1, 64, rng.gaussianVec(64));

    OffloadSpec spec;
    spec.sparseEnd = 300;
    spec.k = 16;
    spec.cache = &cache;
    spec.queries = &q;
    spec.filterQueries = &q;
    spec.quantizedScoring = true;
    EXPECT_DEATH({ dev.nma(0).process(0, spec); },
                 "quantizedScoring is timing-only");
}

} // namespace
} // namespace longsight
