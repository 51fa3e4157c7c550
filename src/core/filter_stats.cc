#include "core/filter_stats.hh"

#include <algorithm>

namespace longsight {

void
FilterStats::record(uint64_t raw, uint64_t survivors, uint64_t selected)
{
    rawKeys += raw;
    survivorKeys += survivors;
    selectedKeys += selected;
    ++evaluations;
}

void
FilterStats::merge(const FilterStats &other)
{
    rawKeys += other.rawKeys;
    survivorKeys += other.survivorKeys;
    selectedKeys += other.selectedKeys;
    evaluations += other.evaluations;
}

double
FilterStats::filterRatio() const
{
    if (rawKeys == 0)
        return 0.0; // nothing evaluated
    // A fully-filtered stream accessed nothing; clamp the denominator
    // so the ratio stays finite but maximal (the tuner relies on low
    // ratios meaning "this head needs a higher threshold").
    const auto accessed = static_cast<double>(
        std::max<uint64_t>(survivorKeys + selectedKeys, 1));
    return 2.0 * static_cast<double>(rawKeys) / accessed;
}

double
FilterStats::sparsity() const
{
    const double r = filterRatio();
    return r > 0.0 ? 1.0 - 1.0 / r : 0.0;
}

} // namespace longsight
