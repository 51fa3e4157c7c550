/**
 * @file
 * Tests for the CXL link model: latency/bandwidth math, link
 * occupancy under contention, and polling behaviour.
 */

#include <gtest/gtest.h>

#include "cxl/link.hh"

namespace longsight {
namespace {

TEST(Cxl, MmioWriteLatency)
{
    CxlConfig cfg;
    CxlLink link(cfg);
    const Tick done = link.mmioWrite(0, 64);
    EXPECT_EQ(done, cfg.mmioWriteLatency + transferTime(64, cfg.bandwidthGBps));
}

TEST(Cxl, BulkReadLatencyPlusBandwidth)
{
    CxlConfig cfg;
    cfg.bandwidthGBps = 50.0;
    CxlLink link(cfg);
    const uint64_t bytes = 1'000'000;
    const Tick done = link.bulkRead(0, bytes);
    const Tick expect = cfg.accessLatency + transferTime(bytes, 50.0);
    EXPECT_EQ(done, expect);
}

TEST(Cxl, LinkOccupancySerializesTransfers)
{
    CxlConfig cfg;
    CxlLink link(cfg);
    const uint64_t bytes = 10'000'000;
    const Tick t1 = link.bulkRead(0, bytes);
    const Tick t2 = link.bulkRead(0, bytes); // issued at 0, must queue
    EXPECT_GE(t2, t1);
    EXPECT_NEAR(static_cast<double>(t2 - t1),
                static_cast<double>(transferTime(bytes, cfg.bandwidthGBps)),
                static_cast<double>(kNanosecond));
}

TEST(Cxl, BytesAccounted)
{
    CxlLink link(CxlConfig{});
    link.mmioWrite(0, 100);
    link.bulkRead(0, 900);
    EXPECT_EQ(link.bytesTransferred(), 1000u);
}

TEST(Cxl, DescriptorDefaultsSane)
{
    CxlConfig cfg;
    EXPECT_GT(cfg.descriptorBytes, 0u);
    EXPECT_GT(cfg.bandwidthGBps, 0.0);
}

} // namespace
} // namespace longsight
