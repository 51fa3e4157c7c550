/**
 * @file
 * Tests for the Near-Memory Accelerator: functional equivalence with
 * the software SCF -> score -> top-k reference (bit-exact), epoch
 * accounting, timing monotonicity, and timing-only mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "core/attention.hh"
#include "core/hybrid_attention.hh"
#include "core/scf.hh"
#include "core/topk.hh"
#include "drex/drex_device.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

DrexConfig
smallConfig(uint32_t head_dim)
{
    DrexConfig cfg;
    cfg.numKvHeads = 2;
    cfg.numLayers = 2;
    cfg.headDim = head_dim;
    return cfg;
}

/** Build a device + cache with n random tokens for one head. */
struct NmaFixture
{
    NmaFixture(size_t n, uint32_t dim, uint64_t seed)
        : rng(seed), device(smallConfig(dim))
    {
        Matrix keys(n, dim, rng.gaussianVec(n * dim));
        Matrix values(n, dim, rng.gaussianVec(n * dim));
        cache = &device.writeContext(0, 0, 0, keys, values);
        query = Matrix(1, dim, rng.gaussianVec(dim));
    }

    OffloadSpec spec(uint64_t begin, uint64_t end, uint32_t k, int th)
    {
        OffloadSpec s;
        s.sparseBegin = begin;
        s.sparseEnd = end;
        s.numQueries = 1;
        s.k = k;
        s.threshold = th;
        s.cache = cache;
        s.queries = &query;
        s.filterQueries = &query;
        return s;
    }

    Rng rng;
    DrexDevice device;
    KvCache *cache;
    Matrix query;
};

class NmaEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, int, uint32_t>>
{
};

TEST_P(NmaEquivalence, MatchesSoftwareReference)
{
    const auto [n, threshold, k] = GetParam();
    const uint32_t dim = 64;
    NmaFixture f(n, dim, 1000 + n + threshold + k);

    auto spec = f.spec(0, n, k, threshold);
    const OffloadResult r = f.device.nma(0).process(0, spec);

    // Software reference: SCF filter -> score -> top-k.
    const auto survivors = scfFilterRows(
        f.query.row(0), f.cache->keysStorage(), 0, n, threshold);
    const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
    const auto scores = attentionScoresAt(
        f.query.row(0), f.cache->keysStorage(), survivors, scale);
    const auto expect = topkSelect(scores, survivors, k);

    EXPECT_EQ(r.survivors, survivors.size());
    ASSERT_EQ(r.topk.size(), 1u);
    ASSERT_EQ(r.topk[0].size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(r.topk[0][i].index, expect[i].index) << "rank " << i;
        EXPECT_FLOAT_EQ(r.topk[0][i].score, expect[i].score);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, NmaEquivalence,
    ::testing::Values(std::make_tuple(size_t{64}, 0, 8u),
                      std::make_tuple(size_t{200}, 32, 16u),
                      std::make_tuple(size_t{500}, 36, 64u),
                      std::make_tuple(size_t{1500}, 30, 128u),
                      std::make_tuple(size_t{3000}, 40, 32u),
                      std::make_tuple(size_t{128}, 64, 8u)));

TEST(Nma, MultiQueryGroupRanksPerQuery)
{
    const uint32_t dim = 32;
    const size_t n = 400;
    NmaFixture f(n, dim, 7);
    Matrix queries(4, dim, f.rng.gaussianVec(4 * dim));

    OffloadSpec spec = f.spec(0, n, 16, 14);
    spec.numQueries = 4;
    spec.queries = &queries;
    spec.filterQueries = &queries;
    const OffloadResult r = f.device.nma(0).process(0, spec);
    ASSERT_EQ(r.topk.size(), 4u);

    const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
    for (uint32_t q = 0; q < 4; ++q) {
        const auto survivors = scfFilterRows(
            queries.row(q), f.cache->keysStorage(), 0, n, 14);
        const auto scores = attentionScoresAt(
            queries.row(q), f.cache->keysStorage(), survivors, scale);
        const auto expect = topkSelect(scores, survivors, 16);
        ASSERT_EQ(r.topk[q].size(), expect.size()) << "query " << q;
        for (size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(r.topk[q][i].index, expect[i].index)
                << "query " << q << " rank " << i;
    }
}

/**
 * A group offload scores the union of its queries' survivors once per
 * epoch and ranks each query over its own survivors only, so every
 * query's top-k must equal a one-query offload of that query, entry
 * for entry and bit for bit. Threshold 0 keeps every key for every
 * query (full overlap); a mid threshold gives each query its own
 * survivors (partial overlap). The region starts and ends off a
 * 64-key word and spans several epochs.
 */
TEST(Nma, GroupOffloadEqualsOneQueryOffloads)
{
    const uint32_t dim = 64;
    const size_t n = 5000;
    const uint64_t begin = 37, end = 4901;
    NmaFixture f(n, dim, 21);
    const uint32_t nq = 4;
    Matrix queries(nq, dim, f.rng.gaussianVec(nq * dim));
    for (const int threshold : {0, 34}) {
        OffloadSpec spec = f.spec(begin, end, 200, threshold);
        spec.numQueries = nq;
        spec.queries = &queries;
        spec.filterQueries = &queries;
        const OffloadResult group = f.device.nma(0).process(0, spec);
        ASSERT_EQ(group.topk.size(), nq);

        uint64_t summed = 0, largest = 0;
        for (uint32_t q = 0; q < nq; ++q) {
            Matrix one(1, dim);
            one.setRow(0, queries.row(q));
            OffloadSpec solo = f.spec(begin, end, 200, threshold);
            solo.queries = &one;
            solo.filterQueries = &one;
            const OffloadResult r = f.device.nma(0).process(0, solo);
            summed += r.survivors;
            largest = std::max(largest, r.survivors);
            ASSERT_EQ(group.topk[q].size(), r.topk[0].size())
                << "threshold " << threshold << " query " << q;
            for (size_t i = 0; i < r.topk[0].size(); ++i) {
                EXPECT_EQ(group.topk[q][i].index, r.topk[0][i].index)
                    << "threshold " << threshold << " query " << q
                    << " rank " << i;
                EXPECT_EQ(std::memcmp(&group.topk[q][i].score,
                                      &r.topk[0][i].score, sizeof(float)),
                          0)
                    << "threshold " << threshold << " query " << q
                    << " rank " << i;
            }
        }
        // The group's survivor count is its union: each key once.
        if (threshold == 0) {
            EXPECT_EQ(group.survivors, end - begin);
            EXPECT_EQ(summed, nq * (end - begin));
        } else {
            EXPECT_GT(group.survivors, largest);
            EXPECT_LT(group.survivors, summed);
        }
    }
}

TEST(Nma, ValueTokensAreUnionOfSelections)
{
    const uint32_t dim = 32;
    NmaFixture f(300, dim, 8);
    Matrix queries(2, dim, f.rng.gaussianVec(2 * dim));
    OffloadSpec spec = f.spec(0, 300, 8, 0);
    spec.numQueries = 2;
    spec.queries = &queries;
    spec.filterQueries = &queries;
    const OffloadResult r = f.device.nma(0).process(0, spec);

    std::set<uint32_t> expect;
    for (const auto &list : r.topk)
        for (const auto &e : list)
            expect.insert(e.index);
    EXPECT_EQ(std::set<uint32_t>(r.valueTokens.begin(),
                                 r.valueTokens.end()),
              expect);
}

TEST(Nma, SubRangeRespected)
{
    NmaFixture f(600, 64, 9);
    auto spec = f.spec(100, 500, 1024, 0);
    const OffloadResult r = f.device.nma(0).process(0, spec);
    EXPECT_EQ(r.regionTokens, 400u);
    EXPECT_EQ(r.survivors, 400u); // threshold 0
    for (const auto &e : r.topk[0]) {
        EXPECT_GE(e.index, 100u);
        EXPECT_LT(e.index, 500u);
    }
}

TEST(Nma, EpochCountMatchesRegionSize)
{
    // One epoch covers banks x 1024 tokens (full device geometry).
    NmaFixture f(64, 64, 10);
    auto spec = f.spec(0, 64, 8, 0);
    const OffloadResult r = f.device.nma(0).process(0, spec);
    EXPECT_EQ(r.epochs, 1u);
}

TEST(Nma, TimingGrowsWithRegion)
{
    DrexConfig cfg = smallConfig(64);
    DrexDevice d1(cfg), d2(cfg);
    OffloadSpec small;
    small.sparseEnd = 10'000;
    small.survivorFraction = 0.1;
    OffloadSpec large = small;
    large.sparseEnd = 100'000;
    const auto r1 = d1.nma(0).process(0, small);
    const auto r2 = d2.nma(0).process(0, large);
    EXPECT_GT(r2.doneTick - r2.startTick, 4 * (r1.doneTick - r1.startTick));
}

TEST(Nma, TimingOnlyModeCountsModelledSurvivors)
{
    DrexConfig cfg = smallConfig(64);
    DrexDevice dev(cfg);
    OffloadSpec spec;
    spec.sparseEnd = 50'000;
    spec.survivorFraction = 0.2;
    spec.k = 1024;
    const auto r = dev.nma(0).process(0, spec);
    EXPECT_NEAR(static_cast<double>(r.survivors), 10'000.0, 10.0);
    EXPECT_TRUE(r.topk.empty()); // no functional output
    EXPECT_GT(r.valueBytes, 0u);
}

TEST(Nma, BusyUntilSerializesOffloads)
{
    DrexConfig cfg = smallConfig(64);
    DrexDevice dev(cfg);
    OffloadSpec spec;
    spec.sparseEnd = 20'000;
    const auto r1 = dev.nma(0).process(0, spec);
    const auto r2 = dev.nma(0).process(0, spec);
    EXPECT_GE(r2.startTick, r1.doneTick);
}

TEST(Nma, BreakdownSumsToServiceTime)
{
    DrexConfig cfg = smallConfig(128);
    DrexDevice dev(cfg);
    OffloadSpec spec;
    spec.sparseEnd = 300'000; // multi-epoch
    spec.k = 1024;
    const auto r = dev.nma(0).process(0, spec);
    EXPECT_GT(r.epochs, 1u);
    EXPECT_EQ(r.timing.total(), r.doneTick - r.startTick);
}

TEST(Nma, HardwareTopKCapEnforced)
{
    DrexConfig cfg = smallConfig(64);
    cfg.nma.maxTopK = 16;
    DrexDevice dev(cfg);
    Rng rng(11);
    Matrix keys(200, 64, rng.gaussianVec(200 * 64));
    Matrix values(200, 64, rng.gaussianVec(200 * 64));
    KvCache &cache = dev.writeContext(0, 0, 0, keys, values);
    Matrix q(1, 64, rng.gaussianVec(64));
    OffloadSpec spec;
    spec.sparseEnd = 200;
    spec.k = 1024; // request more than hardware supports
    spec.cache = &cache;
    spec.queries = &q;
    spec.filterQueries = &q;
    const auto r = dev.nma(0).process(0, spec);
    EXPECT_EQ(r.topk[0].size(), 16u);
}

TEST(NmaDeathTest, PagedCacheIsRejected)
{
    // The NMA indexes sign and key rows by token id, which only a flat
    // cache's rows are; a paged cache must die, not read wrong rows.
    NmaFixture f(256, 64, 31);
    KvBlockPool pool(64, 32, 8);
    KvCache paged(pool);
    for (size_t i = 0; i < f.cache->size(); ++i)
        paged.append(f.cache->keyRow(i), f.cache->valueRow(i));
    OffloadSpec spec = f.spec(0, 256, 16, 30);
    spec.cache = &paged;
    EXPECT_DEATH({ f.device.nma(0).process(0, spec); },
                 "functional offload needs a flat cache");
}

} // namespace
} // namespace longsight
