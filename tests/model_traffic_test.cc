/**
 * @file
 * Open-loop traffic generator: determinism for a seed, arrival-order
 * invariants, the statistical shape of both arrival processes
 * (Poisson mean gap, diurnal rate modulation), heavy-tailed request
 * sizes within clamps, and the interactive-priority mix.
 */

#include "model/traffic.hh"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace longsight {
namespace {

bool
sameTrace(const std::vector<ServingRequest> &a,
          const std::vector<ServingRequest> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].id != b[i].id || a[i].arrival != b[i].arrival ||
            a[i].promptLen != b[i].promptLen ||
            a[i].outputTokens != b[i].outputTokens ||
            a[i].priority != b[i].priority)
            return false;
    return true;
}

TEST(Traffic, DeterministicForSeed)
{
    TrafficConfig cfg;
    cfg.requests = 512;
    cfg.seed = 42;
    EXPECT_TRUE(sameTrace(generateTraffic(cfg), generateTraffic(cfg)));

    cfg.process = ArrivalProcess::Diurnal;
    EXPECT_TRUE(sameTrace(generateTraffic(cfg), generateTraffic(cfg)));
}

TEST(Traffic, SeedsProduceDistinctTraces)
{
    TrafficConfig a, b;
    a.requests = b.requests = 64;
    a.seed = 1;
    b.seed = 2;
    EXPECT_FALSE(sameTrace(generateTraffic(a), generateTraffic(b)));
}

TEST(Traffic, ArrivalsSortedIdsSequential)
{
    TrafficConfig cfg;
    cfg.requests = 256;
    cfg.process = ArrivalProcess::Diurnal;
    const auto trace = generateTraffic(cfg);
    ASSERT_EQ(trace.size(), 256u);
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].id, i);
        if (i) {
            EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
        }
    }
}

TEST(Traffic, PoissonMeanGapMatchesRate)
{
    TrafficConfig cfg;
    cfg.requests = 4000;
    cfg.arrivalsPerSec = 10.0;
    const auto trace = generateTraffic(cfg);
    const double span_s = toSeconds(trace.back().arrival);
    const double rate = static_cast<double>(trace.size() - 1) / span_s;
    EXPECT_NEAR(rate, cfg.arrivalsPerSec, 0.15 * cfg.arrivalsPerSec);
}

TEST(Traffic, SizesHeavyTailedWithinClamps)
{
    TrafficConfig cfg;
    cfg.requests = 4000;
    auto trace = generateTraffic(cfg);
    std::vector<uint64_t> prompts;
    for (const auto &r : trace) {
        EXPECT_GE(r.promptLen, cfg.promptMin);
        EXPECT_LE(r.promptLen, cfg.promptMax);
        EXPECT_GE(r.outputTokens, cfg.outputMin);
        EXPECT_LE(r.outputTokens, cfg.outputMax);
        prompts.push_back(r.promptLen);
    }
    std::sort(prompts.begin(), prompts.end());
    const uint64_t median = prompts[prompts.size() / 2];
    const uint64_t p99 = prompts[prompts.size() * 99 / 100];
    // Lognormal sigma 1.1: p99/median = e^(2.33 sigma) ~ 13. Anything
    // close to a light tail (< 4x) means the generator lost its shape.
    EXPECT_GT(p99, 4 * median);
}

TEST(Traffic, DiurnalRateFollowsTheSinusoid)
{
    TrafficConfig cfg;
    cfg.requests = 6000;
    cfg.process = ArrivalProcess::Diurnal;
    cfg.arrivalsPerSec = 20.0;
    cfg.diurnalPeakToTrough = 8.0;
    cfg.diurnalPeriod = 60 * kSecond;
    const auto trace = generateTraffic(cfg);
    // The rate multiplier is 1 + a sin(2 pi t / T): the first half of
    // each period runs above the mean rate, the second below.
    uint64_t first_half = 0, second_half = 0;
    for (const auto &r : trace)
        (r.arrival % cfg.diurnalPeriod < cfg.diurnalPeriod / 2
             ? first_half
             : second_half)++;
    EXPECT_GT(first_half, 2 * second_half)
        << "peak half-period should see several times the trough's "
           "arrivals at peak/trough 8";
}

TEST(Traffic, InteractiveFractionRespected)
{
    TrafficConfig cfg;
    cfg.requests = 4000;
    cfg.interactiveFraction = 0.125;
    const auto trace = generateTraffic(cfg);
    uint64_t interactive = 0;
    for (const auto &r : trace)
        interactive += r.priority == Priority::Interactive;
    const double frac =
        static_cast<double>(interactive) / static_cast<double>(trace.size());
    EXPECT_NEAR(frac, cfg.interactiveFraction, 0.03);
}

} // namespace
} // namespace longsight
