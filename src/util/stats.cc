#include "util/stats.hh"

#include <algorithm>

#include "util/logging.hh"

namespace longsight {

void
RunningStat::add(double x)
{
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    LS_ASSERT(hi > lo && bins > 0, "degenerate histogram range");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    const double t = (x - lo_) / (hi_ - lo_);
    auto bin = static_cast<int64_t>(t * static_cast<double>(counts_.size()));
    bin = std::clamp<int64_t>(bin, 0, static_cast<int64_t>(counts_.size()) - 1);
    ++counts_[static_cast<size_t>(bin)];
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return lo_;
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<uint64_t>(q * static_cast<double>(total_));
    // Out-of-range samples keep their rank instead of folding into the
    // edge bins: a tail beyond hi_ now pushes high quantiles to hi_
    // rather than silently reporting the top bin's midpoint.
    if (target < underflow_)
        return lo_;
    uint64_t cum = underflow_;
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    for (size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] && cum + counts_[i] > target) {
            // Interpolate within the bin: the (target - cum)-th of the
            // bin's counts_[i] samples sits a fraction of the way
            // through the bin's width (+0.5 centers each sample in its
            // equal share). A one-sample bin reproduces the old
            // midpoint; spread samples no longer snap to it.
            const double frac =
                (static_cast<double>(target - cum) + 0.5) /
                static_cast<double>(counts_[i]);
            return lo_ + (static_cast<double>(i) + frac) * width;
        }
        cum += counts_[i];
    }
    return hi_;
}

} // namespace longsight
