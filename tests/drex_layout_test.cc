/**
 * @file
 * Tests for the §7.3 data layout: address encode/decode round trips,
 * Key Block / Context Slice / User Partition placement invariants,
 * channel striping, and the capacity formulas.
 */

#include <gtest/gtest.h>

#include <set>

#include "drex/layout.hh"

namespace longsight {
namespace {

DataLayout
layout8b()
{
    return DataLayout(DrexGeometry{}, LpddrTimings{}, 8, 32, 128);
}

TEST(Layout, KeysPerGroupIs1024)
{
    // 128 keys per block x 8 channels (§7.3.3).
    EXPECT_EQ(layout8b().keysPerGroup(), 1024u);
}

TEST(Layout, SliceCapacityIs131072)
{
    // 1024 x 128 banks (§7.3.3).
    EXPECT_EQ(layout8b().maxTokensPerSlice(), 131072u);
}

TEST(Layout, SignObjectFitsOneBankRowFor128Dim)
{
    const DataLayout l = layout8b();
    // 128 keys x 128 dims / 8 = 2048 B = exactly one LPDDR5X row.
    EXPECT_EQ(l.signBytesPerBlock(), 2048u);
    EXPECT_EQ(l.signRowsPerGroup(), 1u);
}

TEST(Layout, PlaceAssignsGroupBank)
{
    const DataLayout l = layout8b();
    // Token 0 -> group 0 / bank 0; token 1024 -> group 1 / bank 1.
    EXPECT_EQ(l.place(0, 0, 0, 0).bank, 0u);
    EXPECT_EQ(l.place(0, 0, 0, 1024).bank, 1u);
    EXPECT_EQ(l.place(0, 0, 0, 1024).group, 1u);
    // Group wraps at 128 banks.
    EXPECT_EQ(l.place(0, 0, 0, 128 * 1024).bank, 0u);
}

TEST(Layout, SignChannelCyclesWithinGroup)
{
    const DataLayout l = layout8b();
    std::set<uint32_t> channels;
    for (uint64_t t = 0; t < 1024; t += 128)
        channels.insert(l.place(0, 0, 0, t).signChannel);
    EXPECT_EQ(channels.size(), 8u) << "all 8 channels hold sign blocks";
}

TEST(Layout, IndexInBlockCovers0To127)
{
    const DataLayout l = layout8b();
    for (uint64_t t = 0; t < 128; ++t)
        EXPECT_EQ(l.place(0, 0, 0, t).indexInBlock, t);
    EXPECT_EQ(l.place(0, 0, 0, 128).indexInBlock, 0u);
}

TEST(Layout, LayersDoNotOverlapRows)
{
    const DataLayout l = layout8b();
    const TokenPlace l0 = l.place(0, 0, 0, 0);
    const TokenPlace l1 = l.place(0, 1, 0, 0);
    EXPECT_EQ(l1.signRow - l0.signRow, l.rowsPerLayerGroup());
    // Sign, key, value regions of one layer are disjoint.
    EXPECT_LT(l0.signRow, l0.keyRow);
    EXPECT_LT(l0.keyRow, l0.valueRow);
    EXPECT_LE(l0.valueRow + l.valueRowsPerGroup(), l1.signRow);
}

TEST(Layout, HeadsMapToDistinctPackages)
{
    const DataLayout l = layout8b();
    std::set<uint32_t> pkgs;
    for (uint32_t h = 0; h < 8; ++h)
        pkgs.insert(l.packageFor(0, h));
    EXPECT_EQ(pkgs.size(), 8u) << "8 KV heads spread over 8 packages";
}

TEST(Layout, UsersRotatePackages)
{
    const DataLayout l = layout8b();
    EXPECT_NE(l.packageFor(0, 0), l.packageFor(1, 0));
}

TEST(Layout, BytesPerTokenIncludesSignOverhead)
{
    const DataLayout l = layout8b();
    // Per (layer, head): K (256 B) + V (256 B) + signs (16 B).
    EXPECT_EQ(l.bytesPerToken(), (256u + 256u + 16u) * 8u * 32u);
}

TEST(Layout, SegmentSpillKeepsDistinctRows)
{
    const DataLayout l = layout8b();
    const uint64_t per_slice = l.maxTokensPerSlice();
    const TokenPlace seg0 = l.place(0, 0, 0, 0);
    const TokenPlace seg1 = l.place(0, 0, 0, per_slice);
    EXPECT_EQ(seg0.bank, seg1.bank);
    EXPECT_GT(seg1.signRow, seg0.signRow);
}

TEST(Layout, SmallHeadDimStillRowAligned)
{
    DataLayout l(DrexGeometry{}, LpddrTimings{}, 8, 16, 64);
    // 128 keys x 64 dims / 8 = 1024 B -> still 1 row (2048 B rows).
    EXPECT_EQ(l.signBytesPerBlock(), 1024u);
    EXPECT_EQ(l.signRowsPerGroup(), 1u);
    EXPECT_EQ(l.keyRowsPerGroup(), 8u); // 1024*128/8 = 16 KiB / 2 KiB
}

} // namespace
} // namespace longsight
