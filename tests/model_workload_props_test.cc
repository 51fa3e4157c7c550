/**
 * @file
 * Parameterized property tests for the workload generator across head
 * dimensions and dataset presets — the statistical contract the
 * quality experiments rest on (DESIGN.md "Substitutions").
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/attention.hh"
#include "model/workload.hh"
#include "tensor/softmax.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

struct Case
{
    uint32_t headDim;
    const char *preset; // "default", "pg", "wiki2"
};

WorkloadConfig
configFor(const Case &c)
{
    if (std::string(c.preset) == "pg")
        return WorkloadConfig::pgLike(c.headDim);
    if (std::string(c.preset) == "wiki2")
        return WorkloadConfig::wiki2Like(c.headDim);
    WorkloadConfig cfg;
    cfg.headDim = c.headDim;
    return cfg;
}

class WorkloadProps : public ::testing::TestWithParam<Case>
{
};

TEST_P(WorkloadProps, SegmentsAreMonotoneRuns)
{
    HeadWorkload wl(configFor(GetParam()), Rng(1));
    wl.generate(2000);
    const auto &segs = wl.segments();
    const auto &topics = wl.topics();
    for (size_t i = 1; i < segs.size(); ++i) {
        EXPECT_GE(segs[i], segs[i - 1]);
        EXPECT_LE(segs[i], segs[i - 1] + 1);
        if (segs[i] == segs[i - 1]) {
            EXPECT_EQ(topics[i], topics[i - 1])
                << "a segment never changes topic";
        }
    }
}

TEST_P(WorkloadProps, KeysAndQueriesFinite)
{
    HeadWorkload wl(configFor(GetParam()), Rng(2));
    wl.generate(500);
    for (size_t i = 0; i < wl.keys().size(); ++i)
        ASSERT_TRUE(std::isfinite(wl.keys().data()[i]));
    for (int t = 0; t < 5; ++t) {
        const auto q = wl.drawQuery();
        for (float v : q)
            ASSERT_TRUE(std::isfinite(v));
    }
}

TEST_P(WorkloadProps, TargetSegmentCapturesRealMass)
{
    // A query aimed at a specific past segment must put substantially
    // more softmax mass on that segment than its share of the context
    // — the planted-relevance contract behind every quality figure.
    const auto cfg = configFor(GetParam());
    HeadWorkload wl(cfg, Rng(3));
    const size_t n = 3000;
    wl.generate(n);
    const uint32_t target = wl.segments()[n / 2];
    const auto q = wl.drawQueryForSegment(target);
    auto probs =
        attentionScores(q.data(), wl.keys(), 0, n, wl.attentionScale());
    softmaxInPlace(probs);
    double seg_mass = 0.0;
    size_t seg_tokens = 0;
    for (size_t i = 0; i < n; ++i) {
        if (wl.segments()[i] == target) {
            seg_mass += probs[i];
            ++seg_tokens;
        }
    }
    const double share = static_cast<double>(seg_tokens) / n;
    // Large segments (pg-like) can't exceed mass 1; cap the bound.
    EXPECT_GT(seg_mass, std::min(0.8, 5.0 * share))
        << "segment of " << seg_tokens << " tokens";
}

TEST_P(WorkloadProps, RopeChangesKeysButNotPlantedStructure)
{
    Case c = GetParam();
    auto with = configFor(c);
    auto without = configFor(c);
    without.applyRope = false;
    HeadWorkload a(with, Rng(4));
    HeadWorkload b(without, Rng(4));
    a.generate(300);
    b.generate(300);
    // Same latent structure...
    EXPECT_EQ(a.topics(), b.topics());
    EXPECT_EQ(a.segments(), b.segments());
    // ...different key values (except position 0, RoPE identity).
    float diff = 0;
    for (size_t i = 1; i < 300; ++i)
        for (uint32_t d = 0; d < c.headDim; ++d)
            diff += std::abs(a.keys()(i, d) - b.keys()(i, d));
    EXPECT_GT(diff, 1.0f);
}

TEST_P(WorkloadProps, AppendMatchesGenerate)
{
    // generate(n) and generate(n-5) + 5 x appendToken must agree on
    // the latent structure (keys involve the same rng stream order).
    const auto cfg = configFor(GetParam());
    HeadWorkload full(cfg, Rng(5));
    full.generate(100);
    HeadWorkload grown(cfg, Rng(5));
    grown.generate(95);
    for (int i = 0; i < 5; ++i)
        grown.appendToken();
    EXPECT_EQ(full.topics(), grown.topics());
    EXPECT_EQ(full.segments(), grown.segments());
    ASSERT_EQ(grown.keys().rows(), 100u);
    ASSERT_EQ(grown.values().rows(), 100u);
    for (size_t i = 0; i < 100; ++i)
        for (uint32_t d = 0; d < cfg.headDim; ++d) {
            ASSERT_EQ(full.keys()(i, d), grown.keys()(i, d))
                << "token " << i;
            ASSERT_EQ(full.values()(i, d), grown.values()(i, d))
                << "token " << i;
        }

    // A workload that was never generated grows from an empty context.
    HeadWorkload fresh(cfg, Rng(5));
    for (int i = 0; i < 3; ++i)
        fresh.appendToken();
    EXPECT_EQ(fresh.contextLength(), 3u);
    EXPECT_EQ(fresh.keys().cols(), cfg.headDim);
    EXPECT_EQ(fresh.values().rows(), 3u);
    EXPECT_EQ(fresh.values().cols(), cfg.headDim);
    EXPECT_EQ(fresh.segments().size(), 3u);
}

TEST_P(WorkloadProps, AppendGrowsInPlace)
{
    // Appends extend the rows in place with amortized growth: once the
    // first append past generate()'s reservation has grown the store,
    // the next appends reuse it instead of rebuilding the history.
    const auto cfg = configFor(GetParam());
    HeadWorkload wl(cfg, Rng(7));
    wl.generate(1000);
    wl.appendToken();
    const float *keys = wl.keys().data();
    const float *values = wl.values().data();
    for (int i = 0; i < 32; ++i) {
        wl.appendToken();
        ASSERT_EQ(wl.keys().data(), keys) << "append " << i;
        ASSERT_EQ(wl.values().data(), values) << "append " << i;
    }
    EXPECT_EQ(wl.contextLength(), 1033u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WorkloadProps,
    ::testing::Values(Case{64, "default"}, Case{128, "default"},
                      Case{64, "pg"}, Case{64, "wiki2"},
                      Case{128, "wiki2"}));

} // namespace
} // namespace longsight
