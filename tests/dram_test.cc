/**
 * @file
 * Tests for the LPDDR5X channel/package timing model: protocol
 * invariants (row hits cheaper than misses, bank conflicts serialize,
 * bank-level parallelism overlaps), streaming bandwidth approaching
 * the configured peak, and the striped-vs-contiguous property §7.3.3
 * relies on.
 */

#include <gtest/gtest.h>

#include "dram/channel.hh"
#include "dram/package.hh"

namespace longsight {
namespace {

TEST(DramChannel, RowHitFasterThanMiss)
{
    LpddrTimings t;
    DramChannel ch(t);
    const Tick first = ch.read(0, 0, 10, 32); // cold miss
    const Tick hit_latency = ch.read(first, 0, 10, 32) - first;
    DramChannel ch2(t);
    ch2.read(0, 0, 10, 32);
    const Tick t2 = ch2.read(first, 0, 99, 32) - first; // row miss
    EXPECT_LT(hit_latency, t2);
}

TEST(DramChannel, ColdReadLatencyIncludesActivate)
{
    LpddrTimings t;
    DramChannel ch(t);
    const Tick done = ch.read(0, 0, 0, 32);
    EXPECT_EQ(done, t.tRCD + t.tRL + t.tBurst);
}

TEST(DramChannel, RowMissPaysPrecharge)
{
    LpddrTimings t;
    DramChannel ch(t);
    const Tick first = ch.read(0, 0, 0, 32);
    const Tick second = ch.read(first, 0, 1, 32);
    EXPECT_GE(second - first, t.tRP + t.tRCD + t.tRL + t.tBurst);
}

TEST(DramChannel, BankConflictSerializes)
{
    LpddrTimings t;
    DramChannel same(t), diff(t);
    // Two back-to-back reads to different rows of the same bank...
    Tick s = same.read(0, 0, 0, 32);
    s = same.read(0, 0, 1, 32);
    // ...vs two reads to different banks (both issued at 0).
    Tick d = diff.read(0, 0, 0, 32);
    d = diff.read(0, 1, 0, 32);
    EXPECT_GT(s, d);
}

TEST(DramChannel, DataBusSharedAcrossBanks)
{
    LpddrTimings t;
    DramChannel ch(t);
    // Many single-burst reads to distinct banks: bank work overlaps
    // but the data bus serializes the bursts.
    Tick done = 0;
    const int n = 64;
    for (int i = 0; i < n; ++i)
        done = ch.read(0, i, 0, t.burstBytes);
    EXPECT_GE(done, t.tRCD + t.tRL + n * t.tBurst);
    // And not much more than that (no spurious serialization).
    EXPECT_LE(done, t.tRCD + t.tRL + (n + 4) * t.tBurst);
}

TEST(DramChannel, StreamingBandwidthApproachesPeak)
{
    LpddrTimings t;
    DramChannel ch(t);
    // Stream 1 MiB from one row-hit-friendly region across banks.
    const uint64_t total = 1 * kMiB;
    const uint32_t per_read = t.rowBytes; // full-row reads
    Tick done = 0;
    uint64_t issued = 0;
    uint32_t bank = 0;
    uint64_t row = 0;
    while (issued < total) {
        done = ch.read(0, bank, row, per_read);
        issued += per_read;
        bank = (bank + 1) % t.banksPerChannel;
        if (bank == 0)
            ++row;
    }
    const double achieved =
        static_cast<double>(issued) / toSeconds(done);
    EXPECT_GT(achieved, 0.85 * t.peakBandwidth());
}

TEST(DramChannel, StatsCountHitsAndMisses)
{
    LpddrTimings t;
    DramChannel ch(t);
    ch.read(0, 0, 0, 32); // miss
    ch.read(0, 0, 0, 32); // hit
    ch.read(0, 0, 0, 32); // hit
    ch.read(0, 0, 5, 32); // miss
    EXPECT_EQ(ch.stats().reads, 4u);
    EXPECT_EQ(ch.stats().rowHits, 2u);
    EXPECT_EQ(ch.stats().rowMisses, 2u);
}

TEST(DramChannel, EarliestRespected)
{
    LpddrTimings t;
    DramChannel ch(t);
    const Tick done = ch.read(5 * kMicrosecond, 0, 0, 32);
    EXPECT_GE(done, 5 * kMicrosecond);
}

TEST(DramPackage, StripedBeatsContiguousForLargeReads)
{
    LpddrTimings t;
    DramPackage striped(t, 8), contiguous(t, 8);
    const uint32_t bytes = 4096;
    const Tick ts = striped.readStriped(0, 0, 0, bytes);
    const Tick tc = contiguous.readContiguous(0, 0, 0, 0, bytes);
    EXPECT_LT(ts, tc) << "channel interleaving must beat one channel";
}

TEST(DramPackage, StripedTouchesAllChannels)
{
    LpddrTimings t;
    DramPackage pkg(t, 8);
    pkg.readStriped(0, 0, 0, 8 * 32);
    for (uint32_t c = 0; c < 8; ++c)
        EXPECT_EQ(pkg.channel(c).stats().reads, 1u) << "channel " << c;
}

TEST(DramPackage, SmallStripedReadSkipsIdleChannels)
{
    LpddrTimings t;
    DramPackage pkg(t, 8);
    pkg.readStriped(0, 0, 0, 40); // ceil(40/8)=5 bytes/channel
    uint64_t total = pkg.totalBytesTransferred();
    EXPECT_EQ(total, 40u);
}

TEST(DramChannel, RefreshStallsAndCounts)
{
    LpddrTimings t;
    DramChannel ch(t);
    // A read issued right at the refresh boundary must stall past it.
    const Tick at = t.tREFI;
    const Tick done = ch.read(at, 0, 0, 32);
    EXPECT_GE(done, at + t.tRFCab);
    EXPECT_EQ(ch.stats().refreshes, 1u);
}

TEST(DramChannel, RefreshReducesStreamingBandwidth)
{
    auto stream = [](bool refresh) {
        LpddrTimings t;
        t.refreshEnabled = refresh;
        DramChannel ch(t);
        Tick done = 0;
        uint64_t issued = 0;
        uint32_t bank = 0;
        uint64_t row = 0;
        while (issued < 4 * kMiB) {
            done = ch.read(done, bank, row, t.rowBytes);
            issued += t.rowBytes;
            bank = (bank + 1) % t.banksPerChannel;
            if (bank == 0)
                ++row;
        }
        return static_cast<double>(issued) / toSeconds(done);
    };
    const double with_refresh = stream(true);
    const double without = stream(false);
    EXPECT_LT(with_refresh, without);
    // Penalty is roughly tRFCab / tREFI ~ 4.6 %.
    EXPECT_GT(with_refresh, 0.90 * without);
}

TEST(DramChannel, FarFutureAccessSkipsRefreshEpochsInBulk)
{
    LpddrTimings t;
    DramChannel ch(t);
    // One second ahead: ~256K refresh epochs must be accounted in O(1).
    ch.read(kSecond, 0, 0, 32);
    EXPECT_GT(ch.stats().refreshes, 200'000u);
}

TEST(DramGeometry, DrexTotalsMatchPaper)
{
    DrexGeometry g;
    EXPECT_EQ(g.totalChannels(), 64u);
    EXPECT_EQ(g.totalBanks(), 8192u);
    EXPECT_EQ(g.totalPfus(), 8192u); // Table 2: 8,192 PFUs
}

TEST(DramGeometry, CapacityIs512GiB)
{
    DrexGeometry g;
    LpddrTimings t;
    const uint64_t cap =
        static_cast<uint64_t>(g.totalChannels()) * t.channelCapacity;
    EXPECT_EQ(cap, 512ULL * kGiB);
}

TEST(DramTimings, ChannelBandwidthMatchesLpddr5x)
{
    LpddrTimings t;
    // 32 B / 1.875 ns ≈ 17.07 GB/s per channel -> 1.09 TB/s for 64.
    EXPECT_NEAR(t.peakBandwidth() / 1e9, 17.07, 0.2);
}

} // namespace
} // namespace longsight
