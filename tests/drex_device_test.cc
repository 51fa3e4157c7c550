/**
 * @file
 * Tests for the assembled DReX device: capacity accounting, context
 * storage, and the end-to-end functional equivalence of a full
 * GPU-write -> request -> offload -> response round trip against the
 * software LongSightAttn reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/hybrid_attention.hh"
#include "core/itq.hh"
#include "drex/drex_device.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

TEST(Device, CapacityIs512GiB)
{
    DrexConfig cfg;
    DrexDevice dev(cfg);
    EXPECT_EQ(dev.capacityBytes(), 512ULL * kGiB);
}

TEST(Device, MaxUsersBoundedByQueueDepth)
{
    DrexConfig cfg;
    cfg.numKvHeads = 8;
    cfg.numLayers = 32;
    cfg.headDim = 128;
    DrexDevice dev(cfg);
    // Tiny context: capacity allows huge counts, queue depth caps 512.
    EXPECT_EQ(dev.maxUsers(1024), 512u);
}

TEST(Device, MaxUsersShrinksWithContext)
{
    DrexConfig cfg;
    cfg.numKvHeads = 8;
    cfg.numLayers = 32;
    cfg.headDim = 128;
    DrexDevice dev(cfg);
    const uint32_t at_128k = dev.maxUsers(131072);
    const uint32_t at_1m = dev.maxUsers(1'000'000);
    EXPECT_GT(at_128k, at_1m);
    EXPECT_GE(at_1m, 1u) << "paper headline: 1M context fits on DReX";
}

TEST(Device, MaxUsersIncludesSignOverhead)
{
    DrexConfig cfg;
    cfg.numKvHeads = 8;
    cfg.numLayers = 32;
    cfg.headDim = 128;
    DrexDevice dev(cfg);
    // bytesPerToken = (256 + 256 + 16) * 8 * 32 = 135168.
    const uint64_t per_token = dev.layout().bytesPerToken();
    EXPECT_EQ(per_token, 135168u);
    const uint64_t ctx = 500'000;
    EXPECT_EQ(dev.maxUsers(ctx),
              std::min<uint64_t>(512, dev.capacityBytes() /
                                          (per_token * ctx)));
}

TEST(Device, ContextStorageRoundTrip)
{
    DrexConfig cfg;
    cfg.numKvHeads = 2;
    cfg.numLayers = 2;
    cfg.headDim = 32;
    DrexDevice dev(cfg);
    Rng rng(1);
    Matrix keys(50, 32, rng.gaussianVec(50 * 32));
    Matrix values(50, 32, rng.gaussianVec(50 * 32));
    dev.writeContext(1, 0, 1, keys, values);
    EXPECT_TRUE(dev.hasContext(1, 0, 1));
    EXPECT_FALSE(dev.hasContext(1, 1, 1));
    const KvCache &c = dev.context(1, 0, 1);
    EXPECT_EQ(c.size(), 50u);
    EXPECT_EQ(c.keysStorage()(10, 3), keys(10, 3));
}

TEST(Device, IncrementalWritesAppend)
{
    DrexConfig cfg;
    cfg.numKvHeads = 1;
    cfg.numLayers = 1;
    cfg.headDim = 32;
    DrexDevice dev(cfg);
    Rng rng(2);
    Matrix k1(30, 32, rng.gaussianVec(30 * 32));
    Matrix v1(30, 32, rng.gaussianVec(30 * 32));
    Matrix k2(20, 32, rng.gaussianVec(20 * 32));
    Matrix v2(20, 32, rng.gaussianVec(20 * 32));
    dev.writeContext(0, 0, 0, k1, v1);
    dev.writeContext(0, 0, 0, k2, v2);
    EXPECT_EQ(dev.context(0, 0, 0).size(), 50u);
}

/**
 * The end-to-end equivalence: device offload selections == software
 * hybrid attention sparse selections, with and without ITQ.
 */
class DeviceEquivalence : public ::testing::TestWithParam<bool>
{
};

TEST_P(DeviceEquivalence, OffloadMatchesLongSightAttn)
{
    const bool use_itq = GetParam();
    const uint32_t dim = 64;
    const size_t n = 800;
    const uint32_t window = 64, sinks = 8, k = 32;
    const int threshold = 30;

    DrexConfig cfg;
    cfg.numKvHeads = 1;
    cfg.numLayers = 1;
    cfg.headDim = dim;
    DrexDevice dev(cfg);

    Rng rng(77 + use_itq);
    Matrix keys(n, dim, rng.gaussianVec(n * dim));
    Matrix values(n, dim, rng.gaussianVec(n * dim));

    // GPU-side reference cache.
    KvCache gpu_cache(dim);
    gpu_cache.appendAll(keys, values);
    // Device-side copy (the GPU's Key/Value Object writes).
    KvCache &dev_cache = dev.writeContext(0, 0, 0, keys, values);

    Matrix rotation;
    if (use_itq) {
        rotation = trainItqRotation(keys, 15, rng);
        gpu_cache.setItqRotation(rotation);
        dev_cache.setItqRotation(rotation);
    }

    const std::vector<float> q = rng.gaussianVec(dim);

    // Software reference.
    LongSightConfig sw_cfg;
    sw_cfg.windowSize = window;
    sw_cfg.sinkTokens = sinks;
    sw_cfg.topK = k;
    sw_cfg.defaultThreshold = threshold;
    LongSightAttn attn(sw_cfg, 1);
    const auto sw = attn.computeHead(q, gpu_cache, 0);

    // Device request over the same sparse region.
    Matrix qmat(1, dim);
    qmat.setRow(0, q.data());
    const std::vector<float> qf = dev_cache.toFilterSpace(q);
    Matrix qfmat(1, dim);
    qfmat.setRow(0, qf.data());

    AttentionRequest req;
    req.uid = 0;
    OffloadSpec spec;
    spec.sparseBegin = sinks;
    spec.sparseEnd = n - window;
    spec.k = k;
    spec.threshold = threshold;
    spec.cache = &dev_cache;
    spec.queries = &qmat;
    spec.filterQueries = &qfmat;
    req.headOffloads.push_back(spec);
    dev.submit(std::move(req));
    const auto responses = dev.processAll();
    ASSERT_EQ(responses.size(), 1u);
    const auto &topk = responses[0].headResults[0].topk[0];

    // The software attended set minus sinks/window must equal the
    // device's top-k selection set.
    std::vector<uint32_t> sw_sparse;
    for (uint32_t idx : sw.attended)
        if (idx >= sinks && idx < n - window)
            sw_sparse.push_back(idx);
    std::vector<uint32_t> hw_sparse;
    for (const auto &e : topk)
        hw_sparse.push_back(e.index);
    std::sort(hw_sparse.begin(), hw_sparse.end());
    EXPECT_EQ(hw_sparse, sw_sparse)
        << (use_itq ? "with" : "without") << " ITQ";
    EXPECT_EQ(responses[0].headResults[0].survivors, sw.sparseSurvivors);
}

INSTANTIATE_TEST_SUITE_P(ItqModes, DeviceEquivalence,
                         ::testing::Values(false, true));

TEST(Device, PowerAreaMatchesPaper)
{
    const DrexPowerArea pa = DrexDevice::powerArea();
    const DrexGeometry g;
    // §9.4: 8 x (18.7 + 1.072) ≈ 158.2 W.
    EXPECT_NEAR(pa.totalPeakWatts(g), 158.2, 0.1);
    EXPECT_NEAR(pa.nmaAreaMm2, 15.1, 1e-9);
    EXPECT_NEAR(pa.pfuDieAreaOverhead, 0.067, 1e-9);
}

} // namespace
} // namespace longsight
