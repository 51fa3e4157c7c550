/**
 * @file
 * Tests for the exact attention primitives.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/attention.hh"
#include "tensor/linalg.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

struct Fixture
{
    Fixture() : rng(42), keys(16, 8, rng.gaussianVec(16 * 8)),
                values(16, 8, rng.gaussianVec(16 * 8)),
                q(rng.gaussianVec(8))
    {
    }
    Rng rng;
    Matrix keys;
    Matrix values;
    std::vector<float> q;
    static constexpr float scale = 0.3535534f; // 1/sqrt(8)
};

TEST(Attention, ScoresMatchManualDot)
{
    Fixture f;
    const auto s = attentionScores(f.q.data(), f.keys, 0, 16, f.scale);
    ASSERT_EQ(s.size(), 16u);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_NEAR(s[i],
                    dot(f.q.data(), f.keys.row(i), 8) * f.scale, 1e-5);
}

TEST(Attention, ScoresAtSubset)
{
    Fixture f;
    const std::vector<uint32_t> idx = {3, 7, 11};
    const auto s = attentionScoresAt(f.q.data(), f.keys, idx, f.scale);
    const auto full = attentionScores(f.q.data(), f.keys, 0, 16, f.scale);
    ASSERT_EQ(s.size(), 3u);
    for (size_t j = 0; j < idx.size(); ++j)
        EXPECT_FLOAT_EQ(s[j], full[idx[j]]);
}

TEST(Attention, DenseProbsSumToOne)
{
    Fixture f;
    const auto r = denseAttention(f.q.data(), f.keys, f.values, f.scale);
    const double sum = std::accumulate(r.probs.begin(), r.probs.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_EQ(r.output.size(), 8u);
}

TEST(Attention, SubsetOverAllIndicesEqualsDense)
{
    Fixture f;
    std::vector<uint32_t> all(16);
    std::iota(all.begin(), all.end(), 0u);
    const auto dense = denseAttention(f.q.data(), f.keys, f.values, f.scale);
    const auto sub =
        subsetAttention(f.q.data(), f.keys, f.values, all, f.scale);
    for (size_t d = 0; d < 8; ++d)
        EXPECT_NEAR(dense.output[d], sub.output[d], 1e-5);
}

TEST(Attention, SingleTokenSubsetReturnsItsValue)
{
    Fixture f;
    const auto r =
        subsetAttention(f.q.data(), f.keys, f.values, {5}, f.scale);
    for (size_t d = 0; d < 8; ++d)
        EXPECT_NEAR(r.output[d], f.values(5, d), 1e-6);
    EXPECT_NEAR(r.probs[0], 1.0f, 1e-6);
}

TEST(Attention, OutputIsConvexCombinationBound)
{
    // Attention output components are bounded by min/max value entries.
    Fixture f;
    const auto r = denseAttention(f.q.data(), f.keys, f.values, f.scale);
    for (size_t d = 0; d < 8; ++d) {
        float lo = f.values(0, d), hi = f.values(0, d);
        for (size_t i = 1; i < 16; ++i) {
            lo = std::min(lo, f.values(i, d));
            hi = std::max(hi, f.values(i, d));
        }
        EXPECT_GE(r.output[d], lo - 1e-5f);
        EXPECT_LE(r.output[d], hi + 1e-5f);
    }
}

TEST(Attention, HighScaleConcentratesOnArgmax)
{
    Fixture f;
    const auto scores = attentionScores(f.q.data(), f.keys, 0, 16, 1.0f);
    size_t best = 0;
    for (size_t i = 1; i < 16; ++i)
        if (scores[i] > scores[best])
            best = i;
    const auto r = denseAttention(f.q.data(), f.keys, f.values, 50.0f);
    EXPECT_GT(r.probs[best], 0.99f);
}

TEST(Attention, WeightedValueSumIntoMatchesManual)
{
    Fixture f;
    const std::vector<uint32_t> idx = {1, 4};
    const std::vector<float> probs = {0.25f, 0.75f};
    std::vector<float> out(f.values.cols(), 0.0f);
    weightedValueSumInto(f.values, idx.data(), idx.size(), probs.data(),
                         out.data());
    for (size_t d = 0; d < 8; ++d)
        EXPECT_NEAR(out[d],
                    0.25f * f.values(1, d) + 0.75f * f.values(4, d), 1e-6);
}

TEST(Attention, ProbsAlignWithSubsetOrder)
{
    Fixture f;
    const std::vector<uint32_t> idx = {9, 2, 14};
    const auto r =
        subsetAttention(f.q.data(), f.keys, f.values, idx, f.scale);
    ASSERT_EQ(r.probs.size(), 3u);
    // Higher raw score must map to higher probability within subset.
    const auto s = attentionScoresAt(f.q.data(), f.keys, idx, f.scale);
    for (size_t a = 0; a < 3; ++a)
        for (size_t b = 0; b < 3; ++b)
            if (s[a] > s[b]) {
                EXPECT_GT(r.probs[a], r.probs[b]);
            }
}

} // namespace
} // namespace longsight
