/**
 * @file
 * Tests for LongSightAttn, including the central exactness property:
 * with threshold 0 and k >= context, hybrid attention equals dense
 * attention to fp tolerance, whatever the window/sink configuration.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/attention.hh"
#include "core/hybrid_attention.hh"
#include "core/itq.hh"
#include "core/kv_cache.hh"
#include "model/workload.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

constexpr uint32_t kDim = 32;

KvCache
makeCache(size_t n, Rng &rng)
{
    KvCache cache(kDim);
    for (size_t i = 0; i < n; ++i)
        cache.append(rng.gaussianVec(kDim), rng.gaussianVec(kDim));
    return cache;
}

float
maxDiff(const std::vector<float> &a, const std::vector<float> &b)
{
    float m = 0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

/** Parameterized over (window, sinks, context). */
class HybridExactness
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, size_t>>
{
};

TEST_P(HybridExactness, DegeneratesToDenseAttention)
{
    const auto [window, sinks, n] = GetParam();
    Rng rng(1000 + window + sinks + n);
    KvCache cache = makeCache(n, rng);
    const auto q = rng.gaussianVec(kDim);

    LongSightConfig cfg;
    cfg.windowSize = window;
    cfg.sinkTokens = sinks;
    cfg.topK = static_cast<uint32_t>(n); // unbounded in effect
    cfg.defaultThreshold = 0;            // keep everything
    LongSightAttn attn(cfg, 1);

    const auto hybrid = attn.computeHead(q, cache, 0);
    const float scale = 1.0f / std::sqrt(static_cast<float>(kDim));
    const auto dense = denseAttention(q.data(), cache.keysStorage(),
                                      cache.valuesStorage(), scale);

    EXPECT_EQ(hybrid.attended.size(), n)
        << "threshold 0 + unbounded k must attend to every token";
    EXPECT_LT(maxDiff(hybrid.output, dense.output), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HybridExactness,
    ::testing::Values(std::make_tuple(8u, 2u, size_t{64}),
                      std::make_tuple(0u, 0u, size_t{64}),
                      std::make_tuple(16u, 0u, size_t{100}),
                      std::make_tuple(0u, 4u, size_t{50}),
                      std::make_tuple(1024u, 16u, size_t{40}), // all dense
                      std::make_tuple(4u, 4u, size_t{200})));

TEST(Hybrid, ShortContextIsPureDense)
{
    Rng rng(2);
    KvCache cache = makeCache(20, rng);
    LongSightConfig cfg;
    cfg.windowSize = 32;
    cfg.sinkTokens = 4;
    LongSightAttn attn(cfg, 1);
    const auto r = attn.computeHead(rng.gaussianVec(kDim), cache, 0);
    EXPECT_FALSE(r.usedSparse);
    EXPECT_EQ(r.sparseRaw, 0u);
    EXPECT_EQ(r.attended.size(), 20u);
}

TEST(Hybrid, WindowAndSinksAlwaysAttended)
{
    Rng rng(3);
    const size_t n = 100;
    KvCache cache = makeCache(n, rng);
    LongSightConfig cfg;
    cfg.windowSize = 10;
    cfg.sinkTokens = 3;
    cfg.topK = 5;
    cfg.defaultThreshold = kDim; // filter virtually everything
    LongSightAttn attn(cfg, 1);
    const auto r = attn.computeHead(rng.gaussianVec(kDim), cache, 0);
    // Sinks 0..2 and window 90..99 must be present.
    for (uint32_t i : {0u, 1u, 2u})
        EXPECT_NE(std::find(r.attended.begin(), r.attended.end(), i),
                  r.attended.end());
    for (uint32_t i = 90; i < 100; ++i)
        EXPECT_NE(std::find(r.attended.begin(), r.attended.end(), i),
                  r.attended.end());
}

TEST(Hybrid, TopKBoundsSparseSelections)
{
    Rng rng(4);
    const size_t n = 300;
    KvCache cache = makeCache(n, rng);
    LongSightConfig cfg;
    cfg.windowSize = 16;
    cfg.sinkTokens = 4;
    cfg.topK = 8;
    cfg.defaultThreshold = 0;
    LongSightAttn attn(cfg, 1);
    const auto r = attn.computeHead(rng.gaussianVec(kDim), cache, 0);
    EXPECT_TRUE(r.usedSparse);
    EXPECT_EQ(r.sparseRaw, n - 16 - 4);
    EXPECT_EQ(r.sparseSurvivors, r.sparseRaw); // threshold 0
    EXPECT_EQ(r.sparseSelected, 8u);
    EXPECT_EQ(r.attended.size(), 16u + 4u + 8u);
}

TEST(Hybrid, SelectionsAreHighestScoringSurvivors)
{
    Rng rng(5);
    const size_t n = 200;
    KvCache cache = makeCache(n, rng);
    const auto q = rng.gaussianVec(kDim);
    LongSightConfig cfg;
    cfg.windowSize = 8;
    cfg.sinkTokens = 0;
    cfg.topK = 4;
    LongSightAttn attn(cfg, 1);
    const auto r = attn.computeHead(q, cache, 0);

    const float scale = 1.0f / std::sqrt(static_cast<float>(kDim));
    const auto scores =
        attentionScores(q.data(), cache.keysStorage(), 0, n, scale);
    // Every sparse-region token NOT attended must score <= the worst
    // attended sparse token.
    float worst_attended = 1e30f;
    for (uint32_t idx : r.attended)
        if (idx < n - 8)
            worst_attended = std::min(worst_attended, scores[idx]);
    for (uint32_t i = 0; i < n - 8; ++i) {
        if (std::find(r.attended.begin(), r.attended.end(), i) ==
            r.attended.end()) {
            EXPECT_LE(scores[i], worst_attended + 1e-6f);
        }
    }
}

TEST(Hybrid, ThresholdReducesSurvivors)
{
    Rng rng(6);
    const size_t n = 400;
    KvCache cache = makeCache(n, rng);
    const auto q = rng.gaussianVec(kDim);
    LongSightConfig cfg;
    cfg.windowSize = 8;
    cfg.sinkTokens = 0;
    cfg.topK = 1024;
    LongSightAttn attn(cfg, 1);

    attn.setThreshold(0, 0);
    const auto r0 = attn.computeHead(q, cache, 0);
    attn.setThreshold(0, kDim / 2);
    const auto r1 = attn.computeHead(q, cache, 0);
    attn.setThreshold(0, (3 * kDim) / 4);
    const auto r2 = attn.computeHead(q, cache, 0);

    EXPECT_GE(r0.sparseSurvivors, r1.sparseSurvivors);
    EXPECT_GE(r1.sparseSurvivors, r2.sparseSurvivors);
}

TEST(Hybrid, ItqRotationLeavesExactnessIntact)
{
    Rng rng(7);
    const size_t n = 120;
    KvCache cache = makeCache(n, rng);
    // Train a rotation on the keys and install it: with threshold 0
    // and unbounded k the output must still equal dense attention.
    Matrix train(n, kDim);
    for (size_t i = 0; i < n; ++i)
        train.setRow(i, cache.keysStorage().row(i));
    cache.setItqRotation(trainItqRotation(train, 10, rng));

    const auto q = rng.gaussianVec(kDim);
    LongSightConfig cfg;
    cfg.windowSize = 8;
    cfg.sinkTokens = 2;
    cfg.topK = static_cast<uint32_t>(n);
    LongSightAttn attn(cfg, 1);
    const auto hybrid = attn.computeHead(q, cache, 0);

    const float scale = 1.0f / std::sqrt(static_cast<float>(kDim));
    const auto dense = denseAttention(q.data(), cache.keysStorage(),
                                      cache.valuesStorage(), scale);
    EXPECT_LT(maxDiff(hybrid.output, dense.output), 1e-4f);
}

TEST(Hybrid, StatsRecordingCountsOnlySparseEvaluations)
{
    Rng rng(8);
    KvCache small = makeCache(10, rng);
    KvCache large = makeCache(200, rng);
    LongSightConfig cfg;
    cfg.windowSize = 16;
    cfg.sinkTokens = 4;
    cfg.topK = 8;
    LongSightAttn attn(cfg, 1);
    FilterStats fs;

    const auto r_small = attn.computeHead(rng.gaussianVec(kDim), small, 0);
    LongSightAttn::recordStats(r_small, fs);
    EXPECT_EQ(fs.evaluations, 0u); // dense-only, nothing recorded

    const auto r_large = attn.computeHead(rng.gaussianVec(kDim), large, 0);
    LongSightAttn::recordStats(r_large, fs);
    EXPECT_EQ(fs.evaluations, 1u);
    EXPECT_EQ(fs.rawKeys, 200u - 20u);
}

TEST(Hybrid, PerHeadThresholdsIndependent)
{
    LongSightConfig cfg;
    cfg.defaultThreshold = 3;
    LongSightAttn attn(cfg, 4);
    EXPECT_EQ(attn.threshold(0), 3);
    attn.setThreshold(2, 17);
    EXPECT_EQ(attn.threshold(2), 17);
    EXPECT_EQ(attn.threshold(1), 3);
    for (uint32_t h = 0; h < 4; ++h)
        attn.setThreshold(h, static_cast<int>(h) + 1);
    EXPECT_EQ(attn.threshold(3), 4);
}

TEST(FilterStatsMetric, DegenerateRatioIsOne)
{
    FilterStats fs;
    fs.record(100, 100, 100); // no filtering, k = raw
    EXPECT_DOUBLE_EQ(fs.filterRatio(), 1.0);
    EXPECT_DOUBLE_EQ(fs.sparsity(), 0.0);
}

TEST(FilterStatsMetric, KnownRatio)
{
    FilterStats fs;
    // raw=1000; survivors=80, selected=20 -> 2000/100 = 20x.
    fs.record(1000, 80, 20);
    EXPECT_DOUBLE_EQ(fs.filterRatio(), 20.0);
    EXPECT_NEAR(fs.sparsity(), 0.95, 1e-9);
}

TEST(FilterStatsMetric, MergeAccumulates)
{
    FilterStats a, b;
    a.record(100, 10, 5);
    b.record(300, 30, 15);
    a.merge(b);
    EXPECT_EQ(a.rawKeys, 400u);
    EXPECT_EQ(a.evaluations, 2u);
    EXPECT_DOUBLE_EQ(a.filterRatio(), 800.0 / 60.0);
}

} // namespace
} // namespace longsight
