/**
 * @file
 * Tests for the clustering-ANNS and LSH baselines: candidate
 * correctness, recall behaviour on clustered data, and the cost
 * accounting that backs the §4 argument against indexed ANNS for the
 * KV cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "eval/sparse_baselines.hh"
#include "model/workload.hh"
#include "tensor/linalg.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

Matrix
clusteredKeys(size_t n, uint32_t dim, uint64_t seed)
{
    WorkloadConfig cfg;
    cfg.headDim = dim;
    cfg.applyRope = false;
    HeadWorkload wl(cfg, Rng(seed));
    wl.generate(n);
    return wl.keys();
}

TEST(KMeans, MembersPartitionTheKeys)
{
    Rng rng(1);
    const Matrix keys = clusteredKeys(500, 32, 2);
    KMeansIndex idx(keys, 8, 5, rng);
    // Probing every cluster returns every token exactly once.
    std::vector<float> q(32, 0.1f);
    const auto all = idx.candidates(q.data(), 8);
    EXPECT_EQ(all.size(), 500u);
    std::set<uint32_t> uniq(all.begin(), all.end());
    EXPECT_EQ(uniq.size(), 500u);
}

TEST(KMeans, FewerProbesFewerCandidates)
{
    Rng rng(2);
    const Matrix keys = clusteredKeys(800, 32, 3);
    KMeansIndex idx(keys, 16, 5, rng);
    std::vector<float> q(32, 0.1f);
    const auto one = idx.candidates(q.data(), 1);
    const auto four = idx.candidates(q.data(), 4);
    EXPECT_LT(one.size(), four.size());
    // Probe-1 candidates are a subset of probe-4 candidates.
    for (uint32_t tok : one)
        EXPECT_TRUE(std::binary_search(four.begin(), four.end(), tok));
}

TEST(KMeans, TopClusterContainsNearestKey)
{
    // The key most similar to the query should usually live in a
    // probed cluster on well-separated data.
    Rng rng(3);
    const Matrix keys = clusteredKeys(1000, 64, 4);
    KMeansIndex idx(keys, 12, 8, rng);
    int hits = 0;
    const int trials = 20;
    Rng qrng(5);
    for (int t = 0; t < trials; ++t) {
        // Query = a perturbed existing key.
        const auto base = static_cast<size_t>(qrng.below(1000));
        std::vector<float> q = keys.rowVec(base);
        for (auto &x : q)
            x += 0.05f * static_cast<float>(qrng.gaussian());
        uint32_t best = 0;
        float best_s = -1e30f;
        for (size_t i = 0; i < 1000; ++i) {
            const float s = dot(q.data(), keys.row(i), 64);
            if (s > best_s) {
                best_s = s;
                best = static_cast<uint32_t>(i);
            }
        }
        const auto cand = idx.candidates(q.data(), 3);
        hits += std::binary_search(cand.begin(), cand.end(), best);
    }
    EXPECT_GE(hits, trials * 7 / 10);
}

TEST(KMeans, BuildCostScalesWithIterations)
{
    Rng rng(8);
    const Matrix keys = clusteredKeys(400, 32, 9);
    KMeansIndex cheap(keys, 8, 2, rng);
    KMeansIndex costly(keys, 8, 10, rng);
    EXPECT_GT(costly.buildDistanceComputations(),
              2 * cheap.buildDistanceComputations());
}

TEST(Lsh, SameVectorAlwaysCollides)
{
    Rng rng(10);
    const Matrix keys = clusteredKeys(400, 32, 11);
    LshIndex idx(keys, 4, 8, rng);
    for (size_t i = 0; i < 20; ++i) {
        const auto cand = idx.candidates(keys.row(i));
        EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(),
                                       static_cast<uint32_t>(i)))
            << "key " << i;
    }
}

TEST(Lsh, MoreTablesMoreCandidates)
{
    Rng rng(12);
    const Matrix keys = clusteredKeys(1000, 32, 13);
    LshIndex small(keys, 2, 10, rng);
    LshIndex large(keys, 8, 10, rng);
    std::vector<float> q(32, 0.3f);
    EXPECT_LE(small.candidates(q.data()).size(),
              large.candidates(q.data()).size() + 50);
}

TEST(Lsh, NearbyVectorsCollideOftenerThanRandom)
{
    Rng rng(14);
    const Matrix keys = clusteredKeys(600, 64, 15);
    LshIndex idx(keys, 6, 10, rng);
    Rng qrng(16);
    int near_hits = 0, rand_hits = 0;
    const int trials = 25;
    for (int t = 0; t < trials; ++t) {
        const auto base = static_cast<size_t>(qrng.below(600));
        std::vector<float> nearby = keys.rowVec(base);
        for (auto &x : nearby)
            x += 0.02f * static_cast<float>(qrng.gaussian());
        const auto cn = idx.candidates(nearby.data());
        near_hits += std::binary_search(cn.begin(), cn.end(),
                                        static_cast<uint32_t>(base));
        const auto rv = qrng.gaussianVec(64);
        const auto cr = idx.candidates(rv.data());
        rand_hits += std::binary_search(cr.begin(), cr.end(),
                                        static_cast<uint32_t>(base));
    }
    EXPECT_GT(near_hits, rand_hits);
    EXPECT_GE(near_hits, trials * 7 / 10);
}

} // namespace
} // namespace longsight
