/**
 * @file
 * Coverage for smaller surfaces: dataset presets, token formatting,
 * descriptor and sparse-region accounting, and ServingResult
 * finalization.
 */

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "model/workload.hh"
#include "sim/longsight_system.hh"
#include "sim/serving.hh"

namespace longsight {
namespace {

TEST(FmtTokens, HumanReadable)
{
    EXPECT_EQ(fmtTokens(2048), "2K");
    EXPECT_EQ(fmtTokens(131072), "128K");
    EXPECT_EQ(fmtTokens(1'000'000), "1M");
    EXPECT_EQ(fmtTokens(1000), "1000");
}

TEST(DatasetPresets, DifferentStatistics)
{
    const auto pg = WorkloadConfig::pgLike(64);
    const auto wiki = WorkloadConfig::wiki2Like(64);
    EXPECT_GT(pg.stickiness, wiki.stickiness);
    EXPECT_LT(pg.numClusters, wiki.numClusters);
    EXPECT_LT(pg.queryLocalProb, wiki.queryLocalProb);
}

TEST(DatasetPresets, PgHasLongerSegments)
{
    HeadWorkload pg(WorkloadConfig::pgLike(64), Rng(1));
    HeadWorkload wiki(WorkloadConfig::wiki2Like(64), Rng(1));
    pg.generate(4000);
    wiki.generate(4000);
    EXPECT_LT(pg.segments().back(), wiki.segments().back())
        << "fewer segment switches in book-like text";
}

TEST(ServingResultFinalize, ZeroSafe)
{
    ServingResult r;
    r.finalize();
    EXPECT_EQ(r.tokensPerSecond, 0.0);
    r.feasible = true;
    r.users = 4;
    r.stepTime = 2 * kMillisecond;
    r.finalize();
    EXPECT_NEAR(r.tokensPerSecond, 2000.0, 1e-6);
    EXPECT_NEAR(r.perTokenLatencyUs, 2000.0, 1e-6);
}

TEST(DescriptorBytes, MatchesModelShape)
{
    const auto m = ModelConfig::llama3_8b();
    LongSightSystem ls(LongSightSystemConfig{}, m);
    // 256 B header + 32 query heads x 128 dims x 2 B.
    EXPECT_EQ(ls.descriptorBytes(), 256u + 32u * 128u * 2u);
}

TEST(SparseTokens, WindowAndSinksExcluded)
{
    const auto m = ModelConfig::llama3_8b();
    LongSightSystem ls(LongSightSystemConfig{}, m);
    EXPECT_EQ(ls.sparseTokens(1040), 0u);
    EXPECT_EQ(ls.sparseTokens(1041), 1u);
    EXPECT_EQ(ls.sparseTokens(10000), 10000u - 1040u);
}

TEST(StepBreakdownTotal, SumsComponents)
{
    StepBreakdown b;
    b.gpuNonAttention = 10;
    b.itq = 1;
    b.gpuWindowExposed = 2;
    b.drexExposed = 3;
    b.submit = 4;
    b.poll = 5;
    b.softmax = 6;
    EXPECT_EQ(b.total(), 31u);
}

} // namespace
} // namespace longsight
