/**
 * @file
 * Command-level timing model of one LPDDR5X channel: per-bank row
 * buffer state (open row, ready time) and shared command/data bus
 * occupancy. Requests are resolved synchronously into completion
 * ticks, which makes the model deterministic and directly testable:
 * row hits are cheaper than misses, bank conflicts serialize on the
 * bank, and independent banks overlap but share the data bus.
 */

#ifndef LONGSIGHT_DRAM_CHANNEL_HH
#define LONGSIGHT_DRAM_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "dram/lpddr_config.hh"
#include "util/units.hh"

namespace longsight {

/**
 * Statistics of one channel's activity.
 */
struct ChannelStats
{
    uint64_t reads = 0;
    uint64_t rowHits = 0;
    uint64_t rowMisses = 0;
    uint64_t bytesTransferred = 0;
    uint64_t refreshes = 0;
};

/**
 * One LPDDR5X channel with open-page row-buffer policy.
 */
class DramChannel
{
  public:
    explicit DramChannel(const LpddrTimings &timings);

    const LpddrTimings &timings() const { return timings_; }

    /**
     * Issue a read of `bytes` from (bank, row) no earlier than
     * `earliest`; returns the tick at which the last data beat
     * arrives. Multi-burst reads occupy the data bus back to back.
     */
    Tick read(Tick earliest, uint32_t bank, uint64_t row, uint32_t bytes);

    /** First tick at which the data bus is free. */
    Tick dataBusFree() const { return busFree_; }

    const ChannelStats &stats() const { return stats_; }

  private:
    struct BankState
    {
        bool rowOpen = false;
        uint64_t openRow = 0;
        Tick readyAt = 0; //!< bank free for the next command
    };

    /** Open `row` in `bank` if needed; returns column-command-ready tick. */
    Tick prepareRow(Tick earliest, BankState &bank, uint64_t row);

    /**
     * Stall `t` past any all-bank refresh window it lands in and
     * advance the refresh schedule (an all-bank refresh fires every
     * tREFI and blocks the channel for tRFCab).
     */
    Tick applyRefresh(Tick t);

    LpddrTimings timings_;
    std::vector<BankState> banks_;
    Tick busFree_ = 0;
    Tick nextRefresh_;
    ChannelStats stats_;
};

} // namespace longsight

#endif // LONGSIGHT_DRAM_CHANNEL_HH
