/**
 * @file
 * Tests for INT8 key quantization and its integration into the
 * KvCache / hybrid-attention / NMA scoring paths.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/hybrid_attention.hh"
#include "core/kv_cache.hh"
#include "drex/drex_device.hh"
#include "tensor/linalg.hh"
#include "tensor/quantized.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

TEST(Quantized, RoundTripErrorBounded)
{
    Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 64;
        const auto v = rng.gaussianVec(n);
        const QuantizedVector q = quantizeInt8(v.data(), n);
        const auto back = dequantize(q);
        for (size_t i = 0; i < n; ++i)
            EXPECT_NEAR(back[i], v[i], q.scale * 0.5 + 1e-6);
    }
}

TEST(Quantized, ZeroVectorSafe)
{
    std::vector<float> zeros(16, 0.0f);
    const QuantizedVector q = quantizeInt8(zeros.data(), 16);
    for (int8_t b : q.data)
        EXPECT_EQ(b, 0);
    const auto back = dequantize(q);
    for (float x : back)
        EXPECT_EQ(x, 0.0f);
}

TEST(Quantized, DotCloseToFullPrecision)
{
    Rng rng(2);
    const size_t n = 128;
    for (int trial = 0; trial < 10; ++trial) {
        const auto a = rng.gaussianVec(n);
        const auto b = rng.gaussianVec(n);
        const QuantizedVector qa = quantizeInt8(a.data(), n);
        const float exact = dot(a.data(), b.data(), n);
        const float approx = dotQuantized(qa, b.data());
        EXPECT_NEAR(approx, exact, 0.05f * std::sqrt(static_cast<float>(n)));
    }
}

TEST(Quantized, ErrorMetricSmallForGaussians)
{
    Rng rng(3);
    const Matrix m(100, 64, rng.gaussianVec(100 * 64));
    EXPECT_LT(quantizationError(m), 0.02);
}

TEST(Quantized, ByteSizeHalvesBf16)
{
    Rng rng(4);
    const auto v = rng.gaussianVec(128);
    const QuantizedVector q = quantizeInt8(v.data(), 128);
    EXPECT_EQ(q.byteSize(), 128u + 4u); // vs 256 B BF16
}

TEST(QuantizedCache, ScoreKeyMatchesQuantizedDot)
{
    Rng rng(5);
    KvCache cache(32);
    for (int i = 0; i < 50; ++i)
        cache.append(rng.gaussianVec(32), rng.gaussianVec(32));
    cache.enableKeyQuantization();
    const auto q = rng.gaussianVec(32);
    for (size_t i = 0; i < 50; ++i)
        EXPECT_EQ(cache.scoreKey(q.data(), i),
                  dotQuantized(quantizeInt8(cache.keyRow(i), 32), q.data()));
}

TEST(QuantizedCache, LateEnableQuantizesExistingAndFuture)
{
    Rng rng(6);
    KvCache cache(16);
    cache.append(rng.gaussianVec(16), rng.gaussianVec(16));
    cache.enableKeyQuantization();
    cache.append(rng.gaussianVec(16), rng.gaussianVec(16));
    const auto q = rng.gaussianVec(16);
    for (size_t i = 0; i < 2; ++i)
        EXPECT_EQ(cache.scoreKey(q.data(), i),
                  dotQuantized(quantizeInt8(cache.keyRow(i), 16), q.data()));
}

TEST(QuantizedHybrid, SelectionNearFullPrecision)
{
    Rng rng(7);
    const size_t n = 600;
    KvCache full(64), quant(64);
    for (size_t i = 0; i < n; ++i) {
        const auto k = rng.gaussianVec(64);
        const auto v = rng.gaussianVec(64);
        full.append(k, v);
        quant.append(k, v);
    }
    quant.enableKeyQuantization();

    LongSightConfig cfg;
    cfg.windowSize = 32;
    cfg.sinkTokens = 8;
    cfg.topK = 64;
    LongSightAttn exact(cfg, 1);
    cfg.quantizedScoring = true;
    LongSightAttn approx(cfg, 1);

    const auto q = rng.gaussianVec(64);
    const auto re = exact.computeHead(q, full, 0);
    const auto rq = approx.computeHead(q, quant, 0);

    // Selections overlap heavily (ordering perturbation only at the
    // boundary of the top-k set).
    size_t common = 0;
    for (uint32_t idx : rq.attended)
        common += std::binary_search(re.attended.begin(),
                                     re.attended.end(), idx);
    EXPECT_GT(static_cast<double>(common) / re.attended.size(), 0.9);
}

TEST(QuantizedNma, FunctionalScoringUsesInt8)
{
    DrexConfig dc;
    dc.numKvHeads = 1;
    dc.numLayers = 1;
    dc.headDim = 64;
    DrexDevice dev(dc);
    Rng rng(8);
    Matrix keys(300, 64, rng.gaussianVec(300 * 64));
    Matrix values(300, 64, rng.gaussianVec(300 * 64));
    KvCache &cache = dev.writeContext(0, 0, 0, keys, values);
    cache.enableKeyQuantization();
    Matrix q(1, 64, rng.gaussianVec(64));

    OffloadSpec spec;
    spec.sparseEnd = 300;
    spec.k = 16;
    spec.cache = &cache;
    spec.queries = &q;
    spec.filterQueries = &q;
    spec.quantizedScoring = true;
    const auto r = dev.nma(0).process(0, spec);
    ASSERT_EQ(r.topk.size(), 1u);
    // Scores must match the cache's quantized scorer exactly.
    const float scale = 0.125f;
    for (const auto &e : r.topk[0])
        EXPECT_FLOAT_EQ(e.score,
                        cache.scoreKey(q.row(0), e.index) * scale);
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

} // namespace
} // namespace longsight
