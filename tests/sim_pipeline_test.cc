/**
 * @file
 * Tests for the functional decode pipeline: staging-buffer flush
 * semantics (§6 bulk updates), device/software top-k consistency as
 * both states evolve token by token, retained-mass quality, and the
 * DReX write-path timing.
 */

#include <gtest/gtest.h>

#include "sim/decode_pipeline.hh"

namespace longsight {
namespace {

DrexConfig
deviceConfig()
{
    DrexConfig cfg;
    cfg.numKvHeads = 2;
    cfg.numLayers = 2;
    cfg.headDim = 64;
    return cfg;
}

PipelineConfig
pipelineConfig()
{
    PipelineConfig cfg;
    cfg.numLayers = 2;
    cfg.numQueryHeads = 4;
    cfg.numKvHeads = 2;
    cfg.headDim = 64;
    cfg.hybrid.windowSize = 256;
    cfg.hybrid.sinkTokens = 8;
    cfg.hybrid.topK = 64;
    cfg.hybrid.defaultThreshold = 24;
    cfg.flushGranularity = 128;
    return cfg;
}

TEST(Pipeline, PrefillFlushesWholeGroupsOnly)
{
    DrexDevice dev(deviceConfig());
    DecodePipeline pipe(pipelineConfig(), dev, 0);
    pipe.prefill(1000);
    // Eligible: 1000 - 256 = 744 -> 5 groups of 128 = 640.
    EXPECT_EQ(pipe.flushedTokens(), 640u);
    EXPECT_EQ(pipe.stagedTokens(), 360u);
    EXPECT_TRUE(dev.hasContext(0, 0, 0));
    EXPECT_EQ(dev.context(0, 1, 1).size(), 640u);
}

TEST(Pipeline, ZeroLayerConfigHasEmptyContext)
{
    // Regression: contextLength() dereferenced gpuCaches_.front() and
    // was UB for a config that owns no (layer, head) groups.
    DrexDevice dev(deviceConfig());
    PipelineConfig cfg = pipelineConfig();
    cfg.numLayers = 0;
    DecodePipeline pipe(cfg, dev, 0);
    EXPECT_EQ(pipe.contextLength(), 0u);
    EXPECT_EQ(pipe.stagedTokens(), 0u);
    pipe.prefill(100); // nothing to generate; must not crash
    EXPECT_EQ(pipe.flushedTokens(), 0u);
}

TEST(Pipeline, ShortContextFlushesNothing)
{
    DrexDevice dev(deviceConfig());
    DecodePipeline pipe(pipelineConfig(), dev, 0);
    pipe.prefill(300);
    EXPECT_EQ(pipe.flushedTokens(), 0u);
    EXPECT_FALSE(dev.hasContext(0, 0, 0));
}

TEST(Pipeline, ChunkedPrefillMatchesOneShot)
{
    // The serving engine's chunked-prefill hook: building a context
    // in uneven chunks must leave the pipeline bit-identical to one
    // monolithic prefill — same flushed prefix, same device state,
    // same decode-step results afterwards.
    DrexDevice dev_one(deviceConfig()), dev_chunks(deviceConfig());
    DecodePipeline one(pipelineConfig(), dev_one, 0);
    DecodePipeline chunks(pipelineConfig(), dev_chunks, 0);

    one.prefill(900);
    chunks.prefill(300);
    chunks.prefillChunk(0); // no-op chunk must be harmless
    chunks.prefillChunk(257);
    chunks.prefillChunk(343);
    ASSERT_EQ(chunks.contextLength(), 900u);

    EXPECT_EQ(chunks.flushedTokens(), one.flushedTokens());
    EXPECT_EQ(dev_chunks.context(0, 1, 1).size(),
              dev_one.context(0, 1, 1).size());
    for (int step = 0; step < 3; ++step) {
        const PipelineStepResult a = one.decodeStep();
        const PipelineStepResult b = chunks.decodeStep();
        EXPECT_EQ(a.offloadsIssued, b.offloadsIssued);
        EXPECT_EQ(a.tokensFlushed, b.tokensFlushed);
        EXPECT_DOUBLE_EQ(a.minRetainedMass, b.minRetainedMass);
        EXPECT_TRUE(a.deviceMatchedSoftware);
        EXPECT_TRUE(b.deviceMatchedSoftware);
    }
}

TEST(Pipeline, DecodeStepsFlushAtGroupBoundaries)
{
    DrexDevice dev(deviceConfig());
    DecodePipeline pipe(pipelineConfig(), dev, 0);
    pipe.prefill(1000); // flushed = 640, eligible backlog 104
    uint64_t flush_events = 0;
    for (int i = 0; i < 40; ++i) {
        const auto r = pipe.decodeStep();
        if (r.tokensFlushed > 0) {
            ++flush_events;
            // One group per (layer, head): 128 x 2 x 2.
            EXPECT_EQ(r.tokensFlushed, 128u * 4u);
        }
    }
    // 40 new tokens + backlog of 104 crosses one 128 boundary.
    EXPECT_EQ(flush_events, 1u);
    EXPECT_EQ(pipe.flushedTokens(), 768u);
}

TEST(Pipeline, DeviceMatchesSoftwareEveryStep)
{
    DrexDevice dev(deviceConfig());
    DecodePipeline pipe(pipelineConfig(), dev, 0);
    pipe.prefill(900);
    for (int i = 0; i < 12; ++i) {
        const auto r = pipe.decodeStep();
        EXPECT_TRUE(r.deviceMatchedSoftware) << "step " << i;
        EXPECT_EQ(r.offloadsIssued, 2u); // one per layer
    }
}

TEST(Pipeline, DeviceMatchesSoftwareWithItq)
{
    DrexDevice dev(deviceConfig());
    PipelineConfig cfg = pipelineConfig();
    cfg.trainItq = true;
    DecodePipeline pipe(cfg, dev, 0);
    pipe.prefill(900);
    for (int i = 0; i < 6; ++i) {
        const auto r = pipe.decodeStep();
        EXPECT_TRUE(r.deviceMatchedSoftware) << "step " << i;
    }
}

TEST(Pipeline, PagedKvMatchesFlatStepForStep)
{
    // Same seed, same prefill, one pipeline on flat caches and one on
    // a shared block pool: every decode step must agree exactly — the
    // paged cache is a layout change, not an algorithm change. The
    // device's top-k must also keep matching the paged software path.
    DrexDevice dev_flat(deviceConfig()), dev_paged(deviceConfig());
    PipelineConfig cfg = pipelineConfig();
    DecodePipeline flat(cfg, dev_flat, 0);
    cfg.pagedKv = true;
    cfg.pagedBlockTokens = 128;
    cfg.pagedMaxContext = 1024; // prefill 900 + 24 steps
    DecodePipeline paged(cfg, dev_paged, 0);
    ASSERT_NE(paged.blockPool(), nullptr);
    EXPECT_EQ(flat.blockPool(), nullptr);

    flat.prefill(900);
    paged.prefill(900);
    for (int i = 0; i < 24; ++i) {
        const auto a = flat.decodeStep();
        const auto b = paged.decodeStep();
        EXPECT_TRUE(b.deviceMatchedSoftware) << "step " << i;
        EXPECT_EQ(a.offloadsIssued, b.offloadsIssued) << "step " << i;
        EXPECT_EQ(a.tokensFlushed, b.tokensFlushed) << "step " << i;
        EXPECT_EQ(a.minRetainedMass, b.minRetainedMass) << "step " << i;
    }
    EXPECT_EQ(flat.contextLength(), paged.contextLength());
    EXPECT_GT(paged.blockPool()->usedBlocks(), 0u);
}

TEST(Pipeline, PagedKvMatchesFlatWithItq)
{
    DrexDevice dev_flat(deviceConfig()), dev_paged(deviceConfig());
    PipelineConfig cfg = pipelineConfig();
    cfg.trainItq = true;
    DecodePipeline flat(cfg, dev_flat, 0);
    cfg.pagedKv = true;
    cfg.pagedBlockTokens = 64;
    cfg.pagedMaxContext = 1024;
    DecodePipeline paged(cfg, dev_paged, 0);

    flat.prefill(900);
    paged.prefill(900);
    for (int i = 0; i < 8; ++i) {
        const auto a = flat.decodeStep();
        const auto b = paged.decodeStep();
        EXPECT_TRUE(b.deviceMatchedSoftware) << "step " << i;
        EXPECT_EQ(a.minRetainedMass, b.minRetainedMass) << "step " << i;
    }
}

TEST(Pipeline, RetainedMassHighAtGenerousSettings)
{
    DrexDevice dev(deviceConfig());
    PipelineConfig cfg = pipelineConfig();
    cfg.hybrid.defaultThreshold = 0;
    cfg.hybrid.topK = 1024;
    DecodePipeline pipe(cfg, dev, 0);
    pipe.prefill(800);
    const auto r = pipe.decodeStep();
    EXPECT_GT(r.minRetainedMass, 0.999);
}

TEST(Pipeline, WriteTimingScalesWithTokens)
{
    DrexDevice dev(deviceConfig());
    const Tick t128 = dev.chargeContextWrite(0, 0, 0, 0, 0, 128);
    DrexDevice dev2(deviceConfig());
    const Tick t1024 = dev2.chargeContextWrite(0, 0, 0, 0, 0, 1024);
    EXPECT_GT(t1024, t128);
    EXPECT_LT(t1024, 16 * t128) << "bulk writes amortize row activates";
}

TEST(Pipeline, WriteTimingOffCriticalPathIsCheap)
{
    // Shipping one 128-token group must cost far less than a decode
    // step (§6 benefit 3) — microseconds, not milliseconds.
    DrexDevice dev(deviceConfig());
    const Tick t = dev.chargeContextWrite(0, 0, 0, 0, 0, 128);
    EXPECT_LT(t, 100 * kMicrosecond);
}

TEST(PipelineDeathTest, TopKAboveNmaCapIsRejected)
{
    // The NMA clamps k to its hardware cap and verification A does not,
    // so a larger k would report a device mismatch on every offloading
    // step; the constructor refuses the config instead.
    DrexDevice dev(deviceConfig());
    PipelineConfig cfg = pipelineConfig();
    cfg.hybrid.topK = dev.config().nma.maxTopK + 1;
    EXPECT_DEATH({ DecodePipeline pipe(cfg, dev, 0); },
                 "hybrid.topK 1025 exceeds the NMA top-k cap 1024");
}

} // namespace
} // namespace longsight
