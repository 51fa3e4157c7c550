#include "dram/channel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace longsight {

DramChannel::DramChannel(const LpddrTimings &timings)
    : timings_(timings), banks_(timings.banksPerChannel),
      nextRefresh_(timings.tREFI)
{
}

Tick
DramChannel::applyRefresh(Tick t)
{
    if (!timings_.refreshEnabled)
        return t;
    if (t < nextRefresh_)
        return t;
    const uint64_t epochs = (t - nextRefresh_) / timings_.tREFI + 1;
    const Tick last_start = nextRefresh_ + (epochs - 1) * timings_.tREFI;
    nextRefresh_ = last_start + timings_.tREFI;
    stats_.refreshes += epochs;
    const Tick refresh_end = last_start + timings_.tRFCab;
    return t < refresh_end ? refresh_end : t;
}

Tick
DramChannel::prepareRow(Tick earliest, BankState &bank, uint64_t row)
{
    Tick t = std::max(earliest, bank.readyAt);
    if (bank.rowOpen && bank.openRow == row) {
        ++stats_.rowHits;
        return t;
    }
    ++stats_.rowMisses;
    if (bank.rowOpen)
        t += timings_.tRP;
    t += timings_.tRCD;
    bank.rowOpen = true;
    bank.openRow = row;
    return t;
}

Tick
DramChannel::read(Tick earliest, uint32_t bank_idx, uint64_t row,
                  uint32_t bytes)
{
    LS_ASSERT(bank_idx < banks_.size(), "bank ", bank_idx, " out of range");
    LS_ASSERT(bytes > 0, "zero-byte DRAM read");
    BankState &bank = banks_[bank_idx];

    earliest = applyRefresh(earliest);
    const Tick col_ready = prepareRow(earliest, bank, row);

    // Data appears tRL after the column command; the burst train then
    // occupies the shared data bus contiguously.
    const uint32_t bursts =
        (bytes + timings_.burstBytes - 1) / timings_.burstBytes;
    const Tick data_start = std::max(col_ready + timings_.tRL, busFree_);
    const Tick done = data_start + bursts * timings_.tBurst;

    busFree_ = done;
    bank.readyAt = col_ready + bursts * timings_.tBurst;

    ++stats_.reads;
    stats_.bytesTransferred += bytes;
    return done;
}

} // namespace longsight
