/**
 * @file
 * LPDDR5X timing and geometry parameters for the DReX memory model
 * (§7.1: 8 packages x 8 channels x 128 banks, 512 GB total).
 * Values follow the LPDDR5X-8533 speed grade the paper's bandwidth
 * numbers imply: 64 channels x ~17.1 GB/s ≈ 1.1 TB/s NMA-visible
 * bandwidth (Table 2).
 */

#ifndef LONGSIGHT_DRAM_LPDDR_CONFIG_HH
#define LONGSIGHT_DRAM_LPDDR_CONFIG_HH

#include <cstdint>

#include "util/units.hh"

namespace longsight {

/**
 * Timing/geometry of one LPDDR5X channel.
 */
struct LpddrTimings
{
    // Geometry.
    uint32_t banksPerChannel = 128;  //!< 4 dies x 32 banks (§7.1)
    uint32_t rowBytes = 2048;        //!< row (page) size per bank
    uint32_t burstBytes = 32;        //!< BL16 on a x16 channel
    uint64_t channelCapacity = 8ULL * kGiB; //!< 512 GB / 64 channels

    // Core timings.
    Tick tRCD = fromNanoseconds(18.0); //!< activate -> column command
    Tick tRP = fromNanoseconds(18.0);  //!< precharge
    Tick tRL = fromNanoseconds(14.0);  //!< read (CAS) latency
    Tick tBurst = fromNanoseconds(1.875); //!< 32 B at 8533 MT/s x16
    Tick tCmd = fromNanoseconds(0.9375);  //!< command-bus slot

    // Refresh: all-bank refresh every tREFI blocks the channel for
    // tRFCab (LPDDR5X 16 Gb die figures).
    bool refreshEnabled = true;
    Tick tREFI = fromNanoseconds(3906.0);
    Tick tRFCab = fromNanoseconds(180.0);

    /** Peak data bandwidth in bytes/second. */
    double peakBandwidth() const
    {
        return static_cast<double>(burstBytes) / toSeconds(tBurst);
    }

    /** Rows per bank implied by the capacity and geometry. */
    uint64_t rowsPerBank() const
    {
        return channelCapacity / (static_cast<uint64_t>(banksPerChannel) *
                                  rowBytes);
    }
};

/**
 * DReX-scale geometry constants (§7.1).
 */
struct DrexGeometry
{
    uint32_t numPackages = 8;
    uint32_t channelsPerPackage = 8;
    uint32_t banksPerChannel = 128;
    uint32_t pfusPerBank = 1; //!< one PIM filtering unit per bank

    uint32_t totalChannels() const
    {
        return numPackages * channelsPerPackage;
    }
    uint32_t totalBanks() const
    {
        return totalChannels() * banksPerChannel;
    }
    /** 8 x 8 x 128 = 8192 PFUs (Table 2). */
    uint32_t totalPfus() const { return totalBanks() * pfusPerBank; }
};

} // namespace longsight

#endif // LONGSIGHT_DRAM_LPDDR_CONFIG_HH
