/**
 * @file
 * Tests for the model layer: Table-1 configs, RoPE, the synthetic
 * workload generator's statistical properties, and the perplexity
 * proxy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/attention.hh"
#include "model/model_config.hh"
#include "model/perplexity.hh"
#include "model/rope.hh"
#include "model/workload.hh"
#include "tensor/linalg.hh"
#include "tensor/softmax.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

TEST(ModelConfig, Table1Shapes)
{
    const auto m1 = ModelConfig::llama3_1b();
    EXPECT_EQ(m1.numQueryHeads, 32u);
    EXPECT_EQ(m1.numKvHeads, 8u);
    EXPECT_EQ(m1.headDim, 64u);
    EXPECT_EQ(m1.numLayers, 16u);
    EXPECT_EQ(m1.groupSize(), 4u);

    const auto m8 = ModelConfig::llama3_8b();
    EXPECT_EQ(m8.numQueryHeads, 32u);
    EXPECT_EQ(m8.numKvHeads, 8u);
    EXPECT_EQ(m8.headDim, 128u);
    EXPECT_EQ(m8.numLayers, 32u);
    // 8 KV heads x 32 layers = 256 databases per user (§4).
    EXPECT_EQ(m8.kvDatabasesPerUser(), 256u);
}

TEST(ModelConfig, KvBytesPerToken)
{
    const auto m8 = ModelConfig::llama3_8b();
    // 2 (K+V) * 8 heads * 128 dim * 2 B * 32 layers = 131072 B.
    EXPECT_EQ(m8.kvBytesPerToken(), 131072u);
    const auto m1 = ModelConfig::llama3_1b();
    // 2 * 8 * 64 * 2 * 16 = 32768 B.
    EXPECT_EQ(m1.kvBytesPerToken(), 32768u);
}

TEST(ModelConfig, WeightBytesInExpectedRange)
{
    // BF16 Llama-3-8B is ~16 GB (the paper's §8.2 data-parallel math);
    // 1B is ~2.5 GB with embeddings.
    const double gb8 =
        static_cast<double>(ModelConfig::llama3_8b().weightBytes()) / 1e9;
    EXPECT_GT(gb8, 13.0);
    EXPECT_LT(gb8, 18.0);
    const double gb1 =
        static_cast<double>(ModelConfig::llama3_1b().weightBytes()) / 1e9;
    EXPECT_GT(gb1, 1.5);
    EXPECT_LT(gb1, 3.5);
}

TEST(ModelConfig, AttentionFlopsScaleWithContext)
{
    const auto m = ModelConfig::llama3_8b();
    EXPECT_EQ(m.attentionFlopsPerToken(2000),
              2 * m.attentionFlopsPerToken(1000));
}

/** RoPE applied to a copy of v. */
std::vector<float>
rotated(const Rope &rope, std::vector<float> v, uint64_t position)
{
    rope.apply(v.data(), position);
    return v;
}

TEST(Rope, PreservesNorm)
{
    Rope rope(64);
    Rng rng(1);
    const auto v = rng.gaussianVec(64);
    for (uint64_t pos : {0ULL, 1ULL, 1000ULL, 1000000ULL}) {
        const auto r = rotated(rope, v, pos);
        EXPECT_NEAR(norm2(r.data(), 64), norm2(v.data(), 64), 1e-3)
            << "pos " << pos;
    }
}

TEST(Rope, PositionZeroIsIdentity)
{
    Rope rope(32);
    Rng rng(2);
    const auto v = rng.gaussianVec(32);
    const auto r = rotated(rope, v, 0);
    for (size_t i = 0; i < 32; ++i)
        EXPECT_NEAR(r[i], v[i], 1e-6);
}

TEST(Rope, RelativePositionProperty)
{
    // <rope(q, a), rope(k, b)> depends only on a - b.
    Rope rope(64);
    Rng rng(3);
    const auto q = rng.gaussianVec(64);
    const auto k = rng.gaussianVec(64);
    const auto qa = rotated(rope, q, 100);
    const auto kb = rotated(rope, k, 60);
    const auto qa2 = rotated(rope, q, 1100);
    const auto kb2 = rotated(rope, k, 1060);
    EXPECT_NEAR(dot(qa.data(), kb.data(), 64),
                dot(qa2.data(), kb2.data(), 64), 1e-2);
}

TEST(Rope, DifferentPositionsProduceDifferentVectors)
{
    Rope rope(64);
    Rng rng(4);
    const auto v = rng.gaussianVec(64);
    const auto a = rotated(rope, v, 5);
    const auto b = rotated(rope, v, 6);
    float diff = 0;
    for (size_t i = 0; i < 64; ++i)
        diff += std::abs(a[i] - b[i]);
    EXPECT_GT(diff, 1e-3f);
}

TEST(Workload, GeneratesRequestedShape)
{
    WorkloadConfig cfg;
    cfg.headDim = 64;
    HeadWorkload wl(cfg, Rng(7));
    wl.generate(500);
    EXPECT_EQ(wl.contextLength(), 500u);
    EXPECT_EQ(wl.keys().rows(), 500u);
    EXPECT_EQ(wl.keys().cols(), 64u);
    EXPECT_EQ(wl.values().rows(), 500u);
    EXPECT_EQ(wl.topics().size(), 500u);
}

TEST(Workload, TopicsAreSticky)
{
    WorkloadConfig cfg;
    cfg.stickiness = 0.98;
    HeadWorkload wl(cfg, Rng(8));
    wl.generate(2000);
    const auto &topics = wl.topics();
    size_t switches = 0;
    for (size_t i = 1; i < topics.size(); ++i)
        switches += (topics[i] != topics[i - 1]);
    // Expected switches ~ 2000 * 0.02 * (1 - 1/12) ≈ 37.
    EXPECT_LT(switches, 90u);
    EXPECT_GT(switches, 5u);
}

TEST(Workload, MultipleTopicsAppear)
{
    WorkloadConfig cfg;
    HeadWorkload wl(cfg, Rng(9));
    wl.generate(3000);
    std::set<uint32_t> seen(wl.topics().begin(), wl.topics().end());
    EXPECT_GE(seen.size(), 4u);
}

TEST(Workload, AppendExtendsContext)
{
    WorkloadConfig cfg;
    HeadWorkload wl(cfg, Rng(10));
    wl.generate(50);
    wl.appendToken();
    wl.appendToken();
    EXPECT_EQ(wl.contextLength(), 52u);
}

TEST(Workload, FirstAppendKeepsThePromptInPlace)
{
    // generate(n) reserves room for decode growth, so the first
    // appended token does not reallocate (and copy) the whole prompt.
    WorkloadConfig cfg;
    cfg.headDim = 64;
    HeadWorkload wl(cfg, Rng(14));
    wl.generate(4096);
    const float *keys = wl.keys().data();
    const float *values = wl.values().data();
    wl.appendToken();
    EXPECT_EQ(wl.keys().data(), keys);
    EXPECT_EQ(wl.values().data(), values);
    EXPECT_EQ(wl.contextLength(), 4097u);
}

TEST(Workload, QueriesPreferTheirTopic)
{
    // A query drawn for topic z must, on average, score same-topic
    // keys above other keys — the planted-relevance property.
    WorkloadConfig cfg;
    cfg.headDim = 64;
    cfg.applyRope = false; // isolate cluster geometry
    HeadWorkload wl(cfg, Rng(11));
    wl.generate(2000);

    const float scale = wl.attentionScale();
    double same = 0, other = 0;
    size_t same_n = 0, other_n = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const uint32_t topic = wl.topics()[trial * 150];
        const auto q = wl.drawQueryForSegment(wl.segments()[trial * 150]);
        const auto scores =
            attentionScores(q.data(), wl.keys(), 0, 2000, scale);
        for (size_t i = 0; i < 2000; ++i) {
            if (wl.topics()[i] == topic) {
                same += scores[i];
                ++same_n;
            } else {
                other += scores[i];
                ++other_n;
            }
        }
    }
    EXPECT_GT(same / same_n, other / other_n + 0.5);
}

TEST(Workload, DenseAttentionMassReachesLongRange)
{
    // With queryLocalProb < 1, a nontrivial share of softmax mass must
    // land outside the most recent window — otherwise sliding-window
    // attention would already be exact and the paper's problem
    // wouldn't exist.
    WorkloadConfig cfg;
    cfg.headDim = 64;
    cfg.queryLocalProb = 0.0; // force long-range queries
    HeadWorkload wl(cfg, Rng(12));
    const size_t n = 4096;
    wl.generate(n);
    const float scale = wl.attentionScale();

    double outside = 0.0;
    const int trials = 8;
    for (int t = 0; t < trials; ++t) {
        const auto q = wl.drawQuery();
        auto scores = attentionScores(q.data(), wl.keys(), 0, n, scale);
        softmaxInPlace(scores);
        for (size_t i = 0; i + 1024 < n; ++i)
            outside += scores[i];
    }
    EXPECT_GT(outside / trials, 0.15);
}

TEST(Workload, HeadsAreIndependent)
{
    WorkloadConfig cfg;
    auto heads = makeHeadWorkloads(cfg, 4, 99);
    ASSERT_EQ(heads.size(), 4u);
    heads[0].generate(100);
    heads[1].generate(100);
    float diff = 0;
    for (size_t i = 0; i < 100; ++i)
        for (size_t j = 0; j < cfg.headDim; ++j)
            diff += std::abs(heads[0].keys()(i, j) - heads[1].keys()(i, j));
    EXPECT_GT(diff, 1.0f);
}

TEST(Workload, DeterministicForSameSeed)
{
    WorkloadConfig cfg;
    HeadWorkload a(cfg, Rng(123)), b(cfg, Rng(123));
    a.generate(200);
    b.generate(200);
    for (size_t i = 0; i < 200; ++i)
        for (size_t j = 0; j < cfg.headDim; ++j)
            EXPECT_EQ(a.keys()(i, j), b.keys()(i, j));
}

TEST(Perplexity, MapsLostMassToPplIncrease)
{
    EXPECT_NEAR(pplIncreasePct(0.0), 0.0, 1e-9);
    EXPECT_NEAR(pplIncreasePct(0.2), 100.0 * (std::exp(0.2) - 1.0), 1e-9);
}

} // namespace
} // namespace longsight
