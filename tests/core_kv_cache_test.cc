/**
 * @file
 * Dedicated tests for KvCache: growth, sign maintenance, ITQ
 * rotation install/reinstall, filter-space mapping, and error paths.
 */

#include <gtest/gtest.h>

#include "core/kv_cache.hh"
#include "tensor/linalg.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

constexpr uint32_t kDim = 16;

TEST(KvCache, StartsEmpty)
{
    KvCache c(kDim);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.headDim(), kDim);
    EXPECT_FALSE(c.hasItqRotation());
}

TEST(KvCache, AppendStoresRows)
{
    Rng rng(1);
    KvCache c(kDim);
    const auto k = rng.gaussianVec(kDim);
    const auto v = rng.gaussianVec(kDim);
    c.append(k, v);
    ASSERT_EQ(c.size(), 1u);
    for (uint32_t i = 0; i < kDim; ++i) {
        EXPECT_EQ(c.keysStorage()(0, i), k[i]);
        EXPECT_EQ(c.valuesStorage()(0, i), v[i]);
    }
}

TEST(KvCache, RawSignsTrackKeys)
{
    Rng rng(2);
    KvCache c(kDim);
    for (int i = 0; i < 20; ++i)
        c.append(rng.gaussianVec(kDim), rng.gaussianVec(kDim));
    for (size_t i = 0; i < 20; ++i)
        EXPECT_EQ(c.rawSigns(i), SignBits(c.keysStorage().row(i), kDim));
}

TEST(KvCache, FilterSignsAreRawWithoutRotation)
{
    Rng rng(3);
    KvCache c(kDim);
    c.append(rng.gaussianVec(kDim), rng.gaussianVec(kDim));
    EXPECT_EQ(c.filterSigns(0), c.rawSigns(0));
}

TEST(KvCache, RotationChangesFilterSignsNotKeys)
{
    Rng rng(4);
    KvCache c(kDim);
    for (int i = 0; i < 10; ++i)
        c.append(rng.gaussianVec(kDim), rng.gaussianVec(kDim));
    const float key_before = c.keysStorage()(3, 5);
    c.setItqRotation(randomOrthogonal(kDim, rng));
    EXPECT_TRUE(c.hasItqRotation());
    EXPECT_EQ(c.keysStorage()(3, 5), key_before) << "scoring keys untouched";

    // Rotated signs equal signs of k * R.
    for (size_t i = 0; i < 10; ++i) {
        const auto rk = gemvT(c.itqRotation(), c.keysStorage().rowVec(i));
        EXPECT_EQ(c.filterSigns(i), SignBits(rk.data(), kDim));
    }
}

TEST(KvCache, AppendsAfterRotationStayRotated)
{
    Rng rng(5);
    KvCache c(kDim);
    c.append(rng.gaussianVec(kDim), rng.gaussianVec(kDim));
    c.setItqRotation(randomOrthogonal(kDim, rng));
    c.append(rng.gaussianVec(kDim), rng.gaussianVec(kDim));
    const auto rk = gemvT(c.itqRotation(), c.keysStorage().rowVec(1));
    EXPECT_EQ(c.filterSigns(1), SignBits(rk.data(), kDim));
}

TEST(KvCache, RotationReinstallRecomputes)
{
    Rng rng(6);
    KvCache c(kDim);
    for (int i = 0; i < 5; ++i)
        c.append(rng.gaussianVec(kDim), rng.gaussianVec(kDim));
    c.setItqRotation(randomOrthogonal(kDim, rng));
    const SignBits first = c.filterSigns(2);
    c.setItqRotation(randomOrthogonal(kDim, rng));
    const SignBits second = c.filterSigns(2);
    EXPECT_NE(first == second, true) << "new rotation, new signs";
}

TEST(KvCache, ToFilterSpaceIdentityWithoutRotation)
{
    Rng rng(7);
    KvCache c(kDim);
    const auto q = rng.gaussianVec(kDim);
    EXPECT_EQ(c.toFilterSpace(q), q);
}

TEST(KvCache, ToFilterSpacePreservesDotProducts)
{
    Rng rng(8);
    KvCache c(kDim);
    c.append(rng.gaussianVec(kDim), rng.gaussianVec(kDim));
    c.setItqRotation(randomOrthogonal(kDim, rng));
    const auto a = rng.gaussianVec(kDim);
    const auto b = rng.gaussianVec(kDim);
    const auto ra = c.toFilterSpace(a);
    const auto rb = c.toFilterSpace(b);
    EXPECT_NEAR(dot(a.data(), b.data(), kDim),
                dot(ra.data(), rb.data(), kDim), 1e-3);
}

TEST(KvCache, AppendAllMatchesLoop)
{
    Rng rng(9);
    Matrix keys(7, kDim, rng.gaussianVec(7 * kDim));
    Matrix values(7, kDim, rng.gaussianVec(7 * kDim));
    KvCache bulk(kDim), loop(kDim);
    bulk.appendAll(keys, values);
    for (size_t i = 0; i < 7; ++i)
        loop.append(keys.rowVec(i), values.rowVec(i));
    ASSERT_EQ(bulk.size(), loop.size());
    for (size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(bulk.rawSigns(i), loop.rawSigns(i));
        EXPECT_EQ(bulk.keysStorage()(i, 3), loop.keysStorage()(i, 3));
    }
}

TEST(KvCache, DimensionMismatchDies)
{
    KvCache c(kDim);
    std::vector<float> wrong(kDim + 1, 0.0f);
    std::vector<float> right(kDim, 0.0f);
    EXPECT_DEATH({ c.append(wrong, right); }, "dim mismatch");
    EXPECT_DEATH(
        { c.setItqRotation(Matrix::identity(kDim + 1)); },
        "headDim");
}

TEST(KvCache, RotationQueryWithoutInstallDies)
{
    KvCache c(kDim);
    EXPECT_DEATH({ c.itqRotation(); }, "no ITQ rotation");
}

} // namespace
} // namespace longsight
