/**
 * @file
 * Tests for Sign-Concordance Filtering: semantics, monotonicity in
 * the threshold, and equivalence of the packed and row-wise paths.
 */

#include <gtest/gtest.h>

#include "core/scf.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

TEST(Scf, ThresholdZeroKeepsEverything)
{
    Rng rng(1);
    const size_t d = 64, n = 200;
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const auto q = rng.gaussianVec(d);
    const auto survivors = scfFilterRows(q.data(), keys, 0, n, 0);
    EXPECT_EQ(survivors.size(), n);
}

TEST(Scf, MaxThresholdKeepsOnlySignIdentical)
{
    Rng rng(2);
    const size_t d = 32;
    const auto q = rng.gaussianVec(d);
    Matrix keys(3, d);
    // Key 0: same signs as q (scaled copy).
    for (size_t i = 0; i < d; ++i)
        keys(0, i) = 2.0f * q[i];
    // Key 1: negated.
    for (size_t i = 0; i < d; ++i)
        keys(1, i) = -q[i] - (q[i] == 0.0f ? 1.0f : 0.0f);
    // Key 2: random.
    const auto r = rng.gaussianVec(d);
    keys.setRow(2, r.data());

    const auto survivors =
        scfFilterRows(q.data(), keys, 0, 3, static_cast<int>(d));
    ASSERT_EQ(survivors.size(), 1u);
    EXPECT_EQ(survivors[0], 0u);
}

TEST(Scf, MonotoneInThreshold)
{
    Rng rng(3);
    const size_t d = 64, n = 500;
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const auto q = rng.gaussianVec(d);
    size_t prev = n + 1;
    for (int th = 0; th <= static_cast<int>(d); th += 4) {
        const auto s = scfFilterRows(q.data(), keys, 0, n, th);
        EXPECT_LE(s.size(), prev) << "threshold " << th;
        prev = s.size();
    }
}

TEST(Scf, PackedMatchesRowWise)
{
    Rng rng(4);
    const size_t d = 128, n = 300;
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const auto q = rng.gaussianVec(d);
    const SignBits qs(q.data(), d);
    const auto key_signs = packSignRows(keys.data(), n, d);

    for (int th : {0, 32, 64, 80, 128}) {
        const auto a = scfFilter(qs, key_signs, th);
        const auto b = scfFilterRows(q.data(), keys, 0, n, th);
        EXPECT_EQ(a, b) << "threshold " << th;
    }
}

TEST(Scf, BaseIndexOffsetsResults)
{
    Rng rng(5);
    const size_t d = 16, n = 10;
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const auto q = rng.gaussianVec(d);
    const SignBits qs(q.data(), d);
    const auto signs = packSignRows(keys.data(), n, d);
    const auto base0 = scfFilter(qs, signs, 0, 0);
    const auto base5 = scfFilter(qs, signs, 0, 5);
    ASSERT_EQ(base0.size(), base5.size());
    for (size_t i = 0; i < base0.size(); ++i)
        EXPECT_EQ(base5[i], base0[i] + 5);
}

TEST(Scf, RangeRestriction)
{
    Rng rng(6);
    const size_t d = 16, n = 50;
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const auto q = rng.gaussianVec(d);
    const auto s = scfFilterRows(q.data(), keys, 10, 20, 0);
    ASSERT_EQ(s.size(), 10u);
    EXPECT_EQ(s.front(), 10u);
    EXPECT_EQ(s.back(), 19u);
}

TEST(Scf, AverageSurvivalNearExpectedForRandomSigns)
{
    // For iid random sign bits, concordance ~ Binomial(d, 1/2);
    // threshold d/2 keeps slightly more than half (>= is inclusive).
    Rng rng(7);
    const size_t d = 64, n = 4000;
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const auto q = rng.gaussianVec(d);
    const auto s = scfFilterRows(q.data(), keys, 0, n, d / 2);
    const double frac = static_cast<double>(s.size()) / n;
    EXPECT_GT(frac, 0.45);
    EXPECT_LT(frac, 0.65);
}

/**
 * Correlation property: keys aligned with the query survive high
 * thresholds more often than anti-aligned keys.
 */
TEST(Scf, AlignedKeysSurviveMoreOften)
{
    Rng rng(8);
    const size_t d = 64, n = 400;
    const auto q = rng.gaussianVec(d);
    Matrix keys(2 * n, d);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < d; ++j) {
            const float noise = static_cast<float>(rng.gaussian()) * 0.8f;
            keys(i, j) = q[j] + noise;       // aligned
            keys(n + i, j) = -q[j] + noise;  // anti-aligned
        }
    }
    const int th = static_cast<int>(d * 3 / 4);
    const auto s = scfFilterRows(q.data(), keys, 0, 2 * n, th);
    size_t aligned = 0, anti = 0;
    for (uint32_t idx : s)
        (idx < n ? aligned : anti)++;
    EXPECT_GT(aligned, 5 * std::max<size_t>(anti, 1));
}

} // namespace
} // namespace longsight
