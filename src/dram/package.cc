#include "dram/package.hh"

#include <algorithm>

#include "util/logging.hh"

namespace longsight {

DramPackage::DramPackage(const LpddrTimings &timings, uint32_t num_channels)
{
    LS_ASSERT(num_channels > 0, "package needs at least one channel");
    channels_.reserve(num_channels);
    for (uint32_t i = 0; i < num_channels; ++i)
        channels_.emplace_back(timings);
}

DramChannel &
DramPackage::channel(uint32_t i)
{
    LS_ASSERT(i < channels_.size(), "channel ", i, " out of range");
    return channels_[i];
}

const DramChannel &
DramPackage::channel(uint32_t i) const
{
    LS_ASSERT(i < channels_.size(), "channel ", i, " out of range");
    return channels_[i];
}

Tick
DramPackage::readStriped(Tick earliest, uint32_t bank, uint64_t row,
                         uint32_t total_bytes)
{
    LS_ASSERT(total_bytes > 0, "zero-byte striped read");
    const uint32_t n = numChannels();
    const uint32_t slice = (total_bytes + n - 1) / n;
    Tick done = earliest;
    uint32_t remaining = total_bytes;
    for (uint32_t c = 0; c < n && remaining > 0; ++c) {
        const uint32_t bytes = std::min(slice, remaining);
        done = std::max(done, channels_[c].read(earliest, bank, row, bytes));
        remaining -= bytes;
    }
    return done;
}

Tick
DramPackage::readContiguous(Tick earliest, uint32_t channel_idx,
                            uint32_t bank, uint64_t row, uint32_t total_bytes)
{
    return channel(channel_idx).read(earliest, bank, row, total_bytes);
}

uint64_t
DramPackage::totalBytesTransferred() const
{
    uint64_t sum = 0;
    for (const auto &c : channels_)
        sum += c.stats().bytesTransferred;
    return sum;
}

} // namespace longsight
