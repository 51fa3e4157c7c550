#include "sim/stats_report.hh"

#include "dram/package.hh"
#include "drex/drex_device.hh"

namespace longsight {

StatsReport::StatsReport(const std::string &title) : table_(title)
{
    table_.setHeader({"Component", "Stat", "Value"});
}

void
StatsReport::addPackage(const std::string &name, const DramPackage &pkg)
{
    uint64_t reads = 0, bytes = 0, hits = 0, total = 0;
    for (uint32_t c = 0; c < pkg.numChannels(); ++c) {
        const ChannelStats &s = pkg.channel(c).stats();
        reads += s.reads;
        bytes += s.bytesTransferred;
        hits += s.rowHits;
        total += s.rowHits + s.rowMisses;
    }
    table_.addRow({name, "reads", std::to_string(reads)});
    table_.addRow({name, "bytes", std::to_string(bytes)});
    table_.addRow({name, "row hit rate",
                   total ? TextTable::num(100.0 * hits / total, 1) + "%"
                         : "-"});
}

void
StatsReport::addDevice(const std::string &name, DrexDevice &dev)
{
    for (uint32_t p = 0; p < dev.config().geometry.numPackages; ++p) {
        if (dev.package(p).totalBytesTransferred() == 0)
            continue; // idle packages add noise, not information
        addPackage(name + ".pkg" + std::to_string(p), dev.package(p));
    }
    table_.addRow({name, "active users",
                   std::to_string(dev.dcc().activeUsers())});
    table_.addRow({name, "completions pending",
                   std::to_string(dev.dcc().pollingRegister().popcount())});
}

} // namespace longsight
