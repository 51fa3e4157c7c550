/**
 * @file
 * Tests for the §7.3.3 partition manager: slot accounting, exact
 * admission, head spreading, temporal expansion, reclamation, and
 * agreement with the byte-level capacity approximation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "drex/drex_device.hh"
#include "drex/partition_manager.hh"

namespace longsight {
namespace {

DataLayout
layout8b()
{
    return DataLayout(DrexGeometry{}, LpddrTimings{}, 8, 32, 128);
}

TEST(Partition, SlotGeometryFor8B)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    // rowsPerLayerGroup = 1 + 16 + 16 = 33; x32 layers = 1056 rows;
    // 32768 rows per bank -> 31 slots per package, 248 device-wide.
    EXPECT_EQ(pm.slotsPerPackage(), 31u);
    EXPECT_EQ(pm.totalSlots(), 248u);
}

TEST(Partition, SlotsForContext)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    EXPECT_EQ(pm.slotsForContext(0), 0u);
    EXPECT_EQ(pm.slotsForContext(1), 8u);       // 1 segment x 8 heads
    EXPECT_EQ(pm.slotsForContext(131072), 8u);
    EXPECT_EQ(pm.slotsForContext(131073), 16u); // temporal expansion
    EXPECT_EQ(pm.slotsForContext(1'000'000), 64u);
}

TEST(Partition, ExactAdmissionMatchesPaperScale)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    // 1M tokens: 64 slots -> 3 users on a 248-slot device.
    EXPECT_EQ(pm.maxUsersExact(1'000'000), 3u);
    // 128K tokens: 8 slots -> 31 users.
    EXPECT_EQ(pm.maxUsersExact(131072), 31u);
}

TEST(Partition, ExactCapacityTracksByteApproximation)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    // The byte model: device capacity over bytes per user (signs
    // included), capped by the DCC queue depth.
    const DrexConfig cfg;
    const uint64_t capacity =
        uint64_t{cfg.geometry.totalChannels()} * cfg.timings.channelCapacity;
    for (uint64_t ctx : {131072ull, 262144ull, 524288ull, 1'000'000ull}) {
        const uint32_t exact = pm.maxUsersExact(ctx);
        const auto approx = static_cast<uint32_t>(std::min<uint64_t>(
            cfg.dcc.queueDepth, capacity / (l.bytesPerToken() * ctx)));
        // The byte model ignores slot rounding; stay within 1 user or
        // 20 %, whichever is larger.
        EXPECT_NEAR(static_cast<double>(exact),
                    static_cast<double>(approx),
                    std::max(1.0, 0.2 * approx))
            << "ctx " << ctx;
    }
}

TEST(Partition, SingleUserHeadsSpreadAcrossPackages)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    const auto part = pm.allocate(0, 100'000);
    ASSERT_TRUE(part.has_value());
    ASSERT_EQ(part->grants.size(), 8u);
    std::set<uint32_t> pkgs;
    for (const auto &g : part->grants)
        pkgs.insert(g.package);
    EXPECT_EQ(pkgs.size(), 8u) << "one head per package";
}

TEST(Partition, NoSlotDoubleAssignment)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (uint32_t u = 0; u < 10; ++u) {
        const auto part = pm.allocate(u, 200'000);
        ASSERT_TRUE(part.has_value()) << "user " << u;
        for (const auto &g : part->grants) {
            const auto key = std::make_pair(g.package, g.slot);
            EXPECT_TRUE(seen.insert(key).second)
                << "package " << g.package << " slot " << g.slot;
        }
    }
}

TEST(Partition, AdmissionFailsAtCapacityWithoutLeaks)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    uint32_t admitted = 0;
    while (pm.allocate(admitted, 1'000'000).has_value())
        ++admitted;
    EXPECT_EQ(admitted, pm.maxUsersExact(1'000'000));
    const uint32_t used_at_full = pm.usedSlots();
    // Failed allocation must not consume slots.
    EXPECT_FALSE(pm.allocate(999, 1'000'000).has_value());
    EXPECT_EQ(pm.usedSlots(), used_at_full);
}

TEST(Partition, ReleaseReclaimsEverything)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    pm.allocate(1, 500'000);
    pm.allocate(2, 500'000);
    EXPECT_GT(pm.usedSlots(), 0u);
    pm.release(1);
    pm.release(2);
    EXPECT_EQ(pm.usedSlots(), 0u);
    EXPECT_DOUBLE_EQ(pm.utilization(), 0.0);
    // Full capacity is available again.
    EXPECT_TRUE(pm.allocate(3, 1'000'000).has_value());
}

TEST(Partition, ReleaseUnknownUserIsNoop)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    pm.release(42);
    EXPECT_EQ(pm.usedSlots(), 0u);
}

TEST(Partition, LoadStaysBalanced)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    for (uint32_t u = 0; u < 12; ++u)
        pm.allocate(u, 131072);
    const auto &load = pm.packageLoad();
    const uint32_t mn = *std::min_element(load.begin(), load.end());
    const uint32_t mx = *std::max_element(load.begin(), load.end());
    EXPECT_LE(mx - mn, 1u) << "least-loaded placement keeps balance";
}

TEST(Partition, DoubleAllocateDies)
{
    const DataLayout l = layout8b();
    PartitionManager pm(l, 8, 32);
    pm.allocate(5, 1000);
    EXPECT_DEATH({ pm.allocate(5, 1000); }, "already has");
}

} // namespace
} // namespace longsight
