/**
 * @file
 * Tests for the PIM Filtering Unit: bitmap mechanics and the central
 * hardware/software equivalence — PFU bitmaps must match software SCF
 * bit-exactly for any data and threshold.
 */

#include <gtest/gtest.h>

#include "core/scf.hh"
#include "drex/pfu.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

TEST(Bitmap, SetAndTest)
{
    Bitmap128 b;
    EXPECT_FALSE(b.test(0));
    b.set(0);
    b.set(63);
    b.set(64);
    b.set(127);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(63));
    EXPECT_TRUE(b.test(64));
    EXPECT_TRUE(b.test(127));
    EXPECT_FALSE(b.test(1));
    EXPECT_EQ(b.popcount(), 4u);
}

TEST(Pfu, SignMatrixOverloadMatchesScalarReference)
{
    Rng rng(77);
    const size_t d = 128, total = 300;
    const Matrix keys(total, d, rng.gaussianVec(total * d));
    const auto key_signs = packSignRows(keys.data(), total, d);
    const SignMatrix packed = SignMatrix::pack(keys.data(), total, d);
    const auto q1 = rng.gaussianVec(d);
    const auto q2 = rng.gaussianVec(d);
    const std::vector<SignBits> queries = {SignBits(q1.data(), d),
                                           SignBits(q2.data(), d)};
    // The word overload takes the group's sign words back to back.
    const size_t wpr = packed.wordsPerRow();
    std::vector<uint64_t> q_words;
    for (const SignBits &q : queries)
        q_words.insert(q_words.end(), q.words().begin(), q.words().end());

    const struct
    {
        size_t begin;
        uint32_t num;
    } regions[] = {{0, 128}, {100, 128}, {172, 128}, {40, 77}, {5, 1}};
    for (int th : {0, 36, 64, 129}) {
        for (const auto &reg : regions) {
            const auto ref = Pfu::filterBlock(
                queries, key_signs.data() + reg.begin, reg.num, th);
            Bitmap128 got[2];
            Pfu::filterBlock(q_words.data(), wpr, 2, packed, reg.begin,
                             reg.num, th, got);
            ASSERT_EQ(ref.size(), 2u);
            for (size_t qi = 0; qi < ref.size(); ++qi)
                for (uint32_t i = 0; i < 128; ++i)
                    EXPECT_EQ(got[qi].test(i), ref[qi].test(i))
                        << "query " << qi << " key " << i << " begin "
                        << reg.begin << " num " << reg.num
                        << " threshold " << th;
        }
    }
}

class PfuEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(PfuEquivalence, BitmapMatchesSoftwareScf)
{
    const int threshold = GetParam();
    Rng rng(42 + threshold);
    const size_t d = 128;
    const Matrix keys(128, d, rng.gaussianVec(128 * d));
    const auto q = rng.gaussianVec(d);
    const SignBits qs(q.data(), d);
    const auto key_signs = packSignRows(keys.data(), 128, d);

    const auto bitmaps =
        Pfu::filterBlock({qs}, key_signs.data(), 128, threshold);
    ASSERT_EQ(bitmaps.size(), 1u);

    const auto sw = scfFilter(qs, key_signs, threshold);
    for (uint32_t i = 0; i < 128; ++i) {
        const bool in_sw =
            std::find(sw.begin(), sw.end(), i) != sw.end();
        EXPECT_EQ(bitmaps[0].test(i), in_sw)
            << "key " << i << " threshold " << threshold;
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PfuEquivalence,
                         ::testing::Values(0, 32, 56, 64, 72, 96, 128));

TEST(Pfu, MultiQueryBitmapsIndependent)
{
    Rng rng(7);
    const size_t d = 64;
    const Matrix keys(128, d, rng.gaussianVec(128 * d));
    const auto key_signs = packSignRows(keys.data(), 128, d);
    const auto q1 = rng.gaussianVec(d);
    const auto q2 = rng.gaussianVec(d);
    const SignBits s1(q1.data(), d), s2(q2.data(), d);

    const auto bitmaps =
        Pfu::filterBlock({s1, s2}, key_signs.data(), 128, 36);
    ASSERT_EQ(bitmaps.size(), 2u);
    const auto solo1 = Pfu::filterBlock({s1}, key_signs.data(), 128, 36);
    const auto solo2 = Pfu::filterBlock({s2}, key_signs.data(), 128, 36);
    EXPECT_EQ(bitmaps[0], solo1[0]);
    EXPECT_EQ(bitmaps[1], solo2[0]);
}

TEST(Pfu, PartialBlockOnlyFiltersPresentKeys)
{
    Rng rng(8);
    const size_t d = 32;
    const Matrix keys(40, d, rng.gaussianVec(40 * d));
    const auto key_signs = packSignRows(keys.data(), 40, d);
    const auto q = rng.gaussianVec(d);
    const SignBits qs(q.data(), d);
    const auto bitmaps = Pfu::filterBlock({qs}, key_signs.data(), 40, 0);
    EXPECT_EQ(bitmaps[0].popcount(), 40u);
    for (uint32_t i = 40; i < 128; ++i)
        EXPECT_FALSE(bitmaps[0].test(i));
}

TEST(Pfu, BitmapGenTimeMatchesRtlConstant)
{
    // d x 1.25 ns per query (§8.2).
    EXPECT_EQ(Pfu::bitmapGenTime(128, 1), fromNanoseconds(160.0));
    EXPECT_EQ(Pfu::bitmapGenTime(64, 4), fromNanoseconds(320.0));
}

TEST(Pfu, HardwareLimitsEnforced)
{
    Rng rng(9);
    const Matrix keys(128, 16, rng.gaussianVec(128 * 16));
    const auto signs = packSignRows(keys.data(), 128, 16);
    std::vector<SignBits> too_many(17, signs[0]);
    EXPECT_DEATH(
        { Pfu::filterBlock(too_many, signs.data(), 128, 0); },
        "1..16 queries");
}

} // namespace
} // namespace longsight
