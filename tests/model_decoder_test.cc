/**
 * @file
 * End-to-end tests of the numeric transformer stack with swappable
 * attention: determinism, stability, cache growth, and the model-
 * level exactness property — a LongSight decoder with generous
 * settings produces the same hidden states as the dense decoder,
 * while aggressive filtering perturbs them only boundedly.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "model/decoder.hh"

namespace longsight {
namespace {

std::vector<float>
embedding(uint64_t step, uint32_t dim)
{
    // Deterministic pseudo-embedding stream.
    Rng rng(0xE0B0 + step);
    auto v = rng.gaussianVec(dim);
    return v;
}

double
maxAbs(const std::vector<float> &a, const std::vector<float> &b)
{
    double m = 0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
    return m;
}

TEST(Decoder, DeterministicForSeed)
{
    DecoderConfig cfg;
    SyntheticDecoder a(cfg, AttentionMode::Dense);
    SyntheticDecoder b(cfg, AttentionMode::Dense);
    for (int t = 0; t < 5; ++t) {
        const auto e = embedding(t, cfg.hiddenDim);
        EXPECT_EQ(a.step(e), b.step(e)) << "step " << t;
    }
}

TEST(Decoder, OutputsStayFinite)
{
    DecoderConfig cfg;
    SyntheticDecoder dec(cfg, AttentionMode::Dense);
    for (int t = 0; t < 64; ++t) {
        const auto out = dec.step(embedding(t, cfg.hiddenDim));
        double norm = 0;
        for (float v : out) {
            ASSERT_TRUE(std::isfinite(v)) << "step " << t;
            norm += static_cast<double>(v) * v;
        }
        EXPECT_LT(std::sqrt(norm), 1e4) << "step " << t;
        EXPECT_GT(std::sqrt(norm), 1e-4) << "step " << t;
    }
}

TEST(Decoder, CachesGrowOneTokenPerStep)
{
    DecoderConfig cfg;
    SyntheticDecoder dec(cfg, AttentionMode::Dense);
    EXPECT_EQ(dec.contextLength(), 0u);
    dec.step(embedding(0, cfg.hiddenDim));
    dec.step(embedding(1, cfg.hiddenDim));
    EXPECT_EQ(dec.contextLength(), 2u);
    EXPECT_EQ(dec.layerCaches(0).size(), cfg.numKvHeads);
    EXPECT_EQ(dec.layerCaches(cfg.numLayers - 1)[0].size(), 2u);
}

TEST(Decoder, LongSightWithGenerousSettingsMatchesDense)
{
    // The model-level exactness degeneration: window + unbounded k +
    // threshold 0 must reproduce the dense decoder's hidden states.
    DecoderConfig cfg;
    LongSightConfig hybrid;
    hybrid.windowSize = 16;
    hybrid.sinkTokens = 2;
    hybrid.topK = 100000;
    hybrid.defaultThreshold = 0;
    SyntheticDecoder dense(cfg, AttentionMode::Dense);
    SyntheticDecoder sparse(cfg, AttentionMode::LongSight, hybrid);
    for (int t = 0; t < 48; ++t) {
        const auto e = embedding(t, cfg.hiddenDim);
        const auto a = dense.step(e);
        const auto b = sparse.step(e);
        EXPECT_LT(maxAbs(a, b), 1e-3) << "step " << t;
    }
}

TEST(Decoder, AggressiveFilteringPerturbsBoundedly)
{
    DecoderConfig cfg;
    LongSightConfig hybrid;
    hybrid.windowSize = 8;
    hybrid.sinkTokens = 2;
    hybrid.topK = 8;
    hybrid.defaultThreshold = static_cast<int>(cfg.headDim / 2);
    SyntheticDecoder dense(cfg, AttentionMode::Dense);
    SyntheticDecoder sparse(cfg, AttentionMode::LongSight, hybrid);
    double total_rel = 0.0;
    const int steps = 48;
    for (int t = 0; t < steps; ++t) {
        const auto e = embedding(t, cfg.hiddenDim);
        const auto a = dense.step(e);
        const auto b = sparse.step(e);
        double diff = 0, ref = 0;
        for (size_t i = 0; i < a.size(); ++i) {
            diff += (static_cast<double>(a[i]) - b[i]) *
                (static_cast<double>(a[i]) - b[i]);
            ref += static_cast<double>(a[i]) * a[i];
        }
        total_rel += std::sqrt(diff / ref);
    }
    // Perturbed but not diverged: the residual stream dominates.
    EXPECT_GT(total_rel / steps, 0.0);
    EXPECT_LT(total_rel / steps, 0.5);
}

TEST(Decoder, ThresholdAffectsHiddenStates)
{
    DecoderConfig cfg;
    LongSightConfig gentle, harsh;
    gentle.windowSize = harsh.windowSize = 8;
    gentle.topK = harsh.topK = 8;
    gentle.defaultThreshold = 0;
    harsh.defaultThreshold = static_cast<int>(cfg.headDim);
    SyntheticDecoder a(cfg, AttentionMode::LongSight, gentle);
    SyntheticDecoder b(cfg, AttentionMode::LongSight, harsh);
    double diff = 0.0;
    for (int t = 0; t < 32; ++t) {
        const auto e = embedding(t, cfg.hiddenDim);
        diff += maxAbs(a.step(e), b.step(e));
    }
    EXPECT_GT(diff, 1e-4);
}

TEST(RmsNorm, UnitRms)
{
    std::vector<float> x = {3.0f, -4.0f, 0.0f, 5.0f};
    const auto y = rmsNorm(x);
    double ms = 0;
    for (float v : y)
        ms += static_cast<double>(v) * v;
    EXPECT_NEAR(std::sqrt(ms / y.size()), 1.0, 1e-4);
}

} // namespace
} // namespace longsight
