/**
 * @file
 * Tests for prefill modeling and the energy-per-token extension.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_model.hh"
#include "model/model_config.hh"
#include "sim/energy.hh"

namespace longsight {
namespace {

TEST(Prefill, SuperlinearInPromptLength)
{
    // Causal attention makes prefill grow faster than linearly.
    GpuModel g(GpuConfig::h100(), ModelConfig::llama3_8b());
    const Tick t8k = g.prefillTime(8192);
    const Tick t32k = g.prefillTime(32768);
    EXPECT_GT(t32k, 4 * t8k - 4 * g.gpu().kernelLaunchOverhead);
}

TEST(Prefill, MuchFasterPerTokenThanDecode)
{
    // §8.1.2: prefill has far higher per-token throughput than decode.
    const auto m = ModelConfig::llama3_8b();
    GpuModel g(GpuConfig::h100(), m);
    const uint64_t n = 8192;
    const double prefill_per_token =
        toSeconds(g.prefillTime(n)) / static_cast<double>(n);
    const double decode_per_token = toSeconds(
        g.decodeNonAttentionTime(1) + g.denseAttentionTime(n, 1));
    EXPECT_LT(prefill_per_token, decode_per_token / 20.0);
}

TEST(Prefill, ZeroPromptIsFree)
{
    GpuModel g(GpuConfig::h100(), ModelConfig::llama3_1b());
    EXPECT_EQ(g.prefillTime(0), 0u);
}

TEST(Energy, DenseGrowsLinearlyWithContext)
{
    EnergyModel em(EnergyConstants{}, ModelConfig::llama3_8b());
    const double e1 = em.denseGpuToken(100'000).totalJ();
    const double e2 = em.denseGpuToken(200'000).totalJ();
    const double fixed = em.denseGpuToken(0).totalJ();
    EXPECT_NEAR(e2 - fixed, 2.0 * (e1 - fixed), 1e-6);
}

TEST(Energy, LongSightBeatsDenseAtLongContext)
{
    EnergyModel em(EnergyConstants{}, ModelConfig::llama3_8b());
    EnergyHybridConfig cfg;
    const uint64_t ctx = 1'000'000;
    EXPECT_LT(em.longSightToken(ctx, cfg).totalJ(),
              0.5 * em.denseGpuToken(ctx).totalJ());
}

TEST(Energy, ShortContextSkipsDrex)
{
    EnergyModel em(EnergyConstants{}, ModelConfig::llama3_1b());
    EnergyHybridConfig cfg;
    const TokenEnergy e = em.longSightToken(512, cfg);
    EXPECT_EQ(e.drexJ, 0.0);
    EXPECT_EQ(e.cxlJ, 0.0);
    EXPECT_GT(e.gpuJ, 0.0);
}

TEST(Energy, HigherFilterRatioLowersDrexEnergy)
{
    EnergyModel em(EnergyConstants{}, ModelConfig::llama3_8b());
    EnergyHybridConfig loose, tight;
    loose.filterRatio = 5.0;
    tight.filterRatio = 50.0;
    const uint64_t ctx = 500'000;
    EXPECT_GT(em.longSightToken(ctx, loose).drexJ,
              em.longSightToken(ctx, tight).drexJ);
}

TEST(Energy, ComponentsSumToTotal)
{
    EnergyModel em(EnergyConstants{}, ModelConfig::llama3_8b());
    const TokenEnergy e =
        em.longSightToken(200'000, EnergyHybridConfig{});
    EXPECT_DOUBLE_EQ(e.totalJ(), e.gpuJ + e.drexJ + e.cxlJ);
    EXPECT_GT(e.drexJ, 0.0);
    EXPECT_GT(e.cxlJ, 0.0);
}

} // namespace
} // namespace longsight
