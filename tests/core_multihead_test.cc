/**
 * @file
 * Tests for MultiHeadLongSight: GQA group routing, per-head threshold
 * independence, shape checks, and the exactness degeneration across a
 * whole layer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/attention.hh"
#include "core/multi_head.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

constexpr uint32_t kDim = 32;

std::vector<KvCache>
makeCaches(uint32_t heads, size_t n, Rng &rng)
{
    std::vector<KvCache> caches;
    for (uint32_t h = 0; h < heads; ++h) {
        caches.emplace_back(kDim);
        for (size_t i = 0; i < n; ++i)
            caches.back().append(rng.gaussianVec(kDim),
                                 rng.gaussianVec(kDim));
    }
    return caches;
}

TEST(MultiHead, ShapeAndGrouping)
{
    LongSightConfig cfg;
    MultiHeadLongSight mh(cfg, 8, 2, kDim);
    EXPECT_EQ(mh.groupSize(), 4u);
    EXPECT_EQ(mh.numQueryHeads(), 8u);
    EXPECT_EQ(mh.numKvHeads(), 2u);
}

TEST(MultiHead, OutputsMatchPerHeadCalls)
{
    Rng rng(1);
    auto caches = makeCaches(2, 100, rng);
    LongSightConfig cfg;
    cfg.windowSize = 16;
    cfg.sinkTokens = 4;
    cfg.topK = 8;
    MultiHeadLongSight mh(cfg, 8, 2, kDim);

    Matrix queries(8, kDim, rng.gaussianVec(8 * kDim));
    const auto layer = mh.compute(queries, caches);
    ASSERT_EQ(layer.outputs.rows(), 8u);
    ASSERT_EQ(layer.perQuery.size(), 8u);

    for (uint32_t q = 0; q < 8; ++q) {
        const uint32_t kv = q / 4;
        const auto solo =
            mh.attention().computeHead(queries.rowVec(q), caches[kv], kv);
        for (uint32_t d = 0; d < kDim; ++d)
            EXPECT_EQ(layer.outputs(q, d), solo.output[d])
                << "query " << q;
    }
}

TEST(MultiHead, StatsAggregateAcrossQueries)
{
    Rng rng(2);
    auto caches = makeCaches(2, 200, rng);
    LongSightConfig cfg;
    cfg.windowSize = 16;
    cfg.sinkTokens = 0;
    cfg.topK = 8;
    MultiHeadLongSight mh(cfg, 8, 2, kDim);
    Matrix queries(8, kDim, rng.gaussianVec(8 * kDim));
    const auto layer = mh.compute(queries, caches);
    EXPECT_EQ(layer.stats.evaluations, 8u);
    EXPECT_EQ(layer.stats.rawKeys, 8u * (200 - 16));
}

TEST(MultiHead, PerKvHeadThresholdsRouteToGroups)
{
    Rng rng(3);
    auto caches = makeCaches(2, 300, rng);
    LongSightConfig cfg;
    cfg.windowSize = 8;
    cfg.sinkTokens = 0;
    cfg.topK = 1024;
    MultiHeadLongSight mh(cfg, 4, 2, kDim);
    // Head 0 keeps everything; head 1 filters hard.
    mh.attention().setThreshold(0, 0);
    mh.attention().setThreshold(1, kDim);

    Matrix queries(4, kDim, rng.gaussianVec(4 * kDim));
    const auto layer = mh.compute(queries, caches);
    // Queries 0-1 (KV head 0) see all survivors; 2-3 see ~none.
    EXPECT_EQ(layer.perQuery[0].sparseSurvivors, 292u);
    EXPECT_EQ(layer.perQuery[1].sparseSurvivors, 292u);
    EXPECT_LE(layer.perQuery[2].sparseSurvivors, 2u);
    EXPECT_LE(layer.perQuery[3].sparseSurvivors, 2u);
}

TEST(MultiHead, LayerExactnessDegeneration)
{
    Rng rng(4);
    const size_t n = 80;
    auto caches = makeCaches(2, n, rng);
    LongSightConfig cfg;
    cfg.windowSize = 8;
    cfg.sinkTokens = 2;
    cfg.topK = static_cast<uint32_t>(n);
    cfg.defaultThreshold = 0;
    MultiHeadLongSight mh(cfg, 4, 2, kDim);
    Matrix queries(4, kDim, rng.gaussianVec(4 * kDim));
    const auto layer = mh.compute(queries, caches);

    const float scale = 1.0f / std::sqrt(static_cast<float>(kDim));
    for (uint32_t q = 0; q < 4; ++q) {
        const uint32_t kv = q / 2;
        const auto dense = denseAttention(queries.row(q),
                                          caches[kv].keysStorage(),
                                          caches[kv].valuesStorage(), scale);
        for (uint32_t d = 0; d < kDim; ++d)
            EXPECT_NEAR(layer.outputs(q, d), dense.output[d], 1e-4f);
    }
}

TEST(MultiHead, RejectsNonDivisibleGrouping)
{
    LongSightConfig cfg;
    EXPECT_DEATH({ MultiHeadLongSight mh(cfg, 6, 4, kDim); (void)mh; },
                 "multiple");
}

} // namespace
} // namespace longsight
