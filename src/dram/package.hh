/**
 * @file
 * An LPDDR5X package: eight channels sharing no resources (each has
 * its own command/data bus) plus a helper for the channel-striped
 * reads LongSight uses for full-precision keys (§7.3.3: each key
 * vector is interleaved across all eight channels of a package so NMA
 * fetches saturate the package bandwidth).
 */

#ifndef LONGSIGHT_DRAM_PACKAGE_HH
#define LONGSIGHT_DRAM_PACKAGE_HH

#include <cstdint>
#include <vector>

#include "dram/channel.hh"
#include "dram/lpddr_config.hh"

namespace longsight {

/**
 * One LPDDR5X package (8 independent channels).
 */
class DramPackage
{
  public:
    DramPackage(const LpddrTimings &timings, uint32_t num_channels);

    uint32_t numChannels() const
    {
        return static_cast<uint32_t>(channels_.size());
    }

    DramChannel &channel(uint32_t i);
    const DramChannel &channel(uint32_t i) const;

    /**
     * Read `total_bytes` striped evenly across every channel of the
     * package, all slices targeting (bank, row) in their channel.
     * Returns the completion tick of the slowest slice.
     */
    Tick readStriped(Tick earliest, uint32_t bank, uint64_t row,
                     uint32_t total_bytes);

    /**
     * Read `total_bytes` from a single channel (the contiguous,
     * non-interleaved layout the ablation bench compares against).
     */
    Tick readContiguous(Tick earliest, uint32_t channel, uint32_t bank,
                        uint64_t row, uint32_t total_bytes);

    /** Aggregate bytes moved across all channels. */
    uint64_t totalBytesTransferred() const;

  private:
    std::vector<DramChannel> channels_;
};

} // namespace longsight

#endif // LONGSIGHT_DRAM_PACKAGE_HH
