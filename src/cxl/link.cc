#include "cxl/link.hh"

#include <algorithm>

#include "util/logging.hh"

namespace longsight {

CxlLink::CxlLink(const CxlConfig &cfg) : cfg_(cfg)
{
    LS_ASSERT(cfg.bandwidthGBps > 0.0, "CXL bandwidth must be positive");
}

Tick
CxlLink::mmioWrite(Tick start, uint32_t bytes)
{
    const Tick xfer = transferTime(bytes, cfg_.bandwidthGBps);
    const Tick begin = std::max(start, linkFree_);
    linkFree_ = begin + xfer;
    bytesMoved_ += bytes;
    return begin + cfg_.mmioWriteLatency + xfer;
}

Tick
CxlLink::bulkRead(Tick start, uint64_t bytes)
{
    LS_ASSERT(bytes > 0, "zero-byte CXL read");
    const Tick xfer = transferTime(bytes, cfg_.bandwidthGBps);
    const Tick begin = std::max(start, linkFree_);
    linkFree_ = begin + xfer;
    bytesMoved_ += bytes;
    return begin + cfg_.accessLatency + xfer;
}

} // namespace longsight
