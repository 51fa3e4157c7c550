/**
 * @file
 * Tests for the uniform stats report.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dram/package.hh"
#include "drex/drex_device.hh"
#include "sim/stats_report.hh"

namespace longsight {
namespace {

TEST(StatsReport, PackageAggregatesChannels)
{
    LpddrTimings t;
    DramPackage pkg(t, 4);
    pkg.readStriped(0, 0, 0, 256);
    StatsReport report("run");
    report.addPackage("pkg0", pkg);
    std::ostringstream os;
    report.print(os);
    EXPECT_NE(os.str().find("256"), std::string::npos);
}

TEST(StatsReport, DeviceSkipsIdlePackages)
{
    DrexConfig cfg;
    cfg.numKvHeads = 1;
    cfg.numLayers = 1;
    cfg.headDim = 64;
    DrexDevice dev(cfg);
    dev.package(dev.layout().packageFor(0, 0)).readStriped(0, 0, 0, 256);
    StatsReport report("run");
    report.addDevice("drex", dev);
    std::ostringstream os;
    report.print(os);
    const std::string s = os.str();
    // Exactly one package saw traffic.
    size_t pkg_mentions = 0;
    for (size_t pos = 0; (pos = s.find(".pkg", pos)) != std::string::npos;
         ++pos)
        ++pkg_mentions;
    // 3 rows per active package: reads, bytes, row hit rate.
    EXPECT_EQ(pkg_mentions, 3u);
}

} // namespace
} // namespace longsight
