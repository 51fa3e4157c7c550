/**
 * @file
 * CXL Type-3 link model (§6, §8.2). The GPU reaches DReX through
 * load/store-visible MMIO (request descriptors, polling register) and
 * bulk data reads (top-k scores and value vectors). The model charges
 * a fixed per-access latency plus a size/bandwidth term and tracks
 * link occupancy so concurrent users contend for bandwidth — the
 * paper's "Value loading over CXL" component that dominates
 * short-context offloads (Fig. 8).
 */

#ifndef LONGSIGHT_CXL_LINK_HH
#define LONGSIGHT_CXL_LINK_HH

#include <cstdint>

#include "util/units.hh"

namespace longsight {

/**
 * Link latency/bandwidth parameters. Defaults follow the dual-socket
 * Xeon emulation methodology of the paper (Pond-style latencies) and
 * a PCIe 5.0 x16 physical link.
 */
struct CxlConfig
{
    Tick accessLatency = fromNanoseconds(250.0); //!< one-way ld/st latency
    Tick mmioWriteLatency = fromNanoseconds(200.0); //!< posted MMIO write
    double bandwidthGBps = 56.0; //!< usable PCIe5 x16 payload bandwidth
    uint32_t descriptorBytes = 256; //!< request descriptor size
};

/**
 * A point-to-point CXL link with occupancy tracking.
 */
class CxlLink
{
  public:
    explicit CxlLink(const CxlConfig &cfg);

    const CxlConfig &config() const { return cfg_; }

    /**
     * Posted MMIO write of `bytes` issued at `start`; returns the tick
     * the device observes it.
     */
    Tick mmioWrite(Tick start, uint32_t bytes);

    /**
     * Bulk read of `bytes` from the device starting at `start`
     * (device-side data ready). Occupies link bandwidth; returns the
     * tick the last byte lands at the host/GPU.
     */
    Tick bulkRead(Tick start, uint64_t bytes);

    /** Total bytes moved through the link so far. */
    uint64_t bytesTransferred() const { return bytesMoved_; }

    /** First tick the link's data path is free. */
    Tick linkFree() const { return linkFree_; }

  private:
    CxlConfig cfg_;
    Tick linkFree_ = 0;
    uint64_t bytesMoved_ = 0;
};

} // namespace longsight

#endif // LONGSIGHT_CXL_LINK_HH
