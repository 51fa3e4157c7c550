/**
 * @file
 * Unit tests for the util substrate: deterministic RNG, running
 * statistics, histograms, and table rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace longsight {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowCoversRangeWithoutOverflow)
{
    Rng r(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const uint64_t v = r.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMomentsReasonable)
{
    Rng r(13);
    const int n = 20000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = r.gaussian();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 1.0, 0.05);
}

TEST(Rng, PermutationIsAPermutation)
{
    Rng r(19);
    const auto p = r.permutation(100);
    std::set<uint32_t> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic)
{
    Rng a(23);
    Rng fork1 = a.fork();
    Rng b(23);
    Rng fork2 = b.fork();
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(fork1.next(), fork2.next());
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStat, KnownValues)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Histogram, CountsOutOfRangeSeparately)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0); // below lo: underflow, not the first bin
    h.add(15.0); // above hi: overflow, not the last bin
    h.add(5.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bins().front(), 0u);
    EXPECT_EQ(h.bins().back(), 0u);
}

TEST(Histogram, OverflowTailPushesHighQuantilesToHi)
{
    // 90 in-range samples plus a 10% tail far above hi_. Folding the
    // tail into the top bin used to report p99 as the top bin's
    // midpoint; the tail's rank must pin p99 at hi_ instead.
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 90; ++i)
        h.add(static_cast<double>(i));
    for (int i = 0; i < 10; ++i)
        h.add(1000.0);
    EXPECT_EQ(h.overflow(), 10u);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
    EXPECT_LT(h.quantile(0.5), 60.0);
}

TEST(Histogram, UnderflowRanksAtLo)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(-5.0);
    for (int i = 0; i < 10; ++i)
        h.add(50.0);
    EXPECT_EQ(h.underflow(), 10u);
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.0);
    EXPECT_NEAR(h.quantile(0.75), 55.0, 10.0);
}

TEST(Histogram, QuantileOrdering)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_LT(h.quantile(0.1), h.quantile(0.5));
    EXPECT_LT(h.quantile(0.5), h.quantile(0.9));
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
}

TEST(Histogram, QuantileInterpolatesWithinBin)
{
    // Pin the exact interpolation rule: the (target - cum)-th sample
    // of a bin sits (rank + 0.5) / count of the way through the bin's
    // width. The old code snapped every in-bin quantile to the bin
    // midpoint, which for a single wide bin made p25 == p50 == p75.
    Histogram one(0.0, 10.0, 1);
    for (double x : {1.0, 3.0, 5.0, 7.0})
        one.add(x);
    EXPECT_DOUBLE_EQ(one.quantile(0.0), 1.25);
    EXPECT_DOUBLE_EQ(one.quantile(0.25), 3.75);
    EXPECT_DOUBLE_EQ(one.quantile(0.5), 6.25);
    EXPECT_DOUBLE_EQ(one.quantile(0.75), 8.75);

    // Two bins of four samples each (width 4): the rank walks smoothly
    // across the bin boundary instead of jumping midpoint-to-midpoint.
    Histogram two(0.0, 8.0, 2);
    for (double x : {0.5, 1.0, 2.0, 3.0, 4.5, 5.0, 6.0, 7.0})
        two.add(x);
    EXPECT_DOUBLE_EQ(two.quantile(0.125), 1.5); // 2nd of 4 in bin 0
    EXPECT_DOUBLE_EQ(two.quantile(0.5), 4.5);   // 1st of 4 in bin 1
    EXPECT_DOUBLE_EQ(two.quantile(1.0), 8.0);   // rank past the end: hi
}

TEST(Histogram, OneSamplePerBinReportsMidpoints)
{
    // A one-sample bin must still report its midpoint (frac = 0.5), so
    // finely-binned histograms keep their historical quantile values.
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(10.0 * i + 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 55.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
}

TEST(Table, RendersAllRows)
{
    TextTable t("demo");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    t.addRow({"3", "4"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("3"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Units, Conversions)
{
    EXPECT_EQ(fromNanoseconds(1.0), kNanosecond);
    EXPECT_DOUBLE_EQ(toNanoseconds(kMicrosecond), 1000.0);
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
}

TEST(Units, TransferTime)
{
    // 1 GB at 1 GB/s = 1 s.
    EXPECT_EQ(transferTime(1'000'000'000ULL, 1.0), kSecond);
    // 64 B at 64 GB/s = 1 ns.
    EXPECT_EQ(transferTime(64, 64.0), kNanosecond);
}

} // namespace
} // namespace longsight
