/**
 * @file
 * Lightweight statistics accumulators used by the simulators and
 * benchmark harnesses: running mean/min/max and a fixed-bin histogram
 * for latency distributions.
 */

#ifndef LONGSIGHT_UTIL_STATS_HH
#define LONGSIGHT_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace longsight {

/**
 * Running summary statistics (incremental mean, min, max).
 */
class RunningStat
{
  public:
    /** Fold one sample into the summary. */
    void add(double x);

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width-bin histogram over [lo, hi); out-of-range samples are
 * tracked as underflow/overflow counts rather than folded into the
 * edge bins, so quantiles stay honest when the range is too tight.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, size_t bins);

    void add(double x);

    uint64_t count() const { return total_; }
    const std::vector<uint64_t> &bins() const { return counts_; }

    /** Samples below lo (counted, ranked at lo in quantiles). */
    uint64_t underflow() const { return underflow_; }

    /** Samples at or above hi (counted, ranked at hi in quantiles). */
    uint64_t overflow() const { return overflow_; }

    /** Approximate quantile (q in [0,1]), linearly interpolated
     *  within the selected bin (a one-sample bin reports its
     *  midpoint; under/overflow samples rank at lo/hi). */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
};

} // namespace longsight

#endif // LONGSIGHT_UTIL_STATS_HH
