/**
 * @file
 * Cross-module integration tests: the full algorithm pipeline
 * (workload -> KV cache -> ITQ -> hybrid attention -> perplexity
 * proxy) at small scale, asserting the qualitative claims behind
 * Figures 3 and 4, plus a GQA-grouped GPU+DReX round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/attention.hh"
#include "core/hybrid_attention.hh"
#include "core/itq.hh"
#include "core/kv_cache.hh"
#include "drex/drex_device.hh"
#include "model/perplexity.hh"
#include "model/workload.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

constexpr uint32_t kDim = 64;

struct Pipeline
{
    Pipeline(size_t context, uint64_t seed) : wl(makeWorkload(seed))
    {
        wl.generate(context);
        cache = std::make_unique<KvCache>(kDim);
        cache->appendAll(wl.keys(), wl.values());
    }

    static HeadWorkload makeWorkload(uint64_t seed)
    {
        WorkloadConfig cfg;
        cfg.headDim = kDim;
        return HeadWorkload(cfg, Rng(seed));
    }

    void trainItq(Rng &rng)
    {
        // §5.4: train on ~1K post-RoPE keys and queries.
        const size_t nk = std::min<size_t>(cache->size(), 896);
        const size_t nq = 128;
        Matrix train(nk + nq, kDim);
        for (size_t i = 0; i < nk; ++i)
            train.setRow(i, cache->keysStorage().row(i));
        for (size_t i = 0; i < nq; ++i) {
            const auto q = wl.drawQuery();
            train.setRow(nk + i, q.data());
        }
        cache->setItqRotation(trainItqRotation(train, 20, rng));
    }

    /** Evaluate a config over `trials` queries. */
    std::pair<double, double> // {lost mass, filter ratio}
    evaluate(const LongSightConfig &cfg, int trials)
    {
        LongSightAttn attn(cfg, 1);
        FilterStats fs;
        const float scale = wl.attentionScale();
        double lost = 0.0;
        for (int t = 0; t < trials; ++t) {
            const auto q = wl.drawQuery();
            const auto r = attn.computeHead(q, *cache, 0);
            const auto dense = denseAttention(
                q.data(), cache->keysStorage(), cache->valuesStorage(), scale);
            // Lost mass: the dense probability outside the attended set.
            double retained = 0.0;
            for (uint32_t idx : r.attended)
                retained += dense.probs[idx];
            lost += std::max(0.0, 1.0 - retained);
            LongSightAttn::recordStats(r, fs);
        }
        return {lost / trials, fs.filterRatio()};
    }

    HeadWorkload wl;
    std::unique_ptr<KvCache> cache;
};

TEST(Integration, SmallKLosesMoreMassAtLongerContext)
{
    // The Fig.-3a mechanism: fixed k restricts access to useful
    // context, so quality degrades as context grows.
    LongSightConfig cfg;
    cfg.windowSize = 0;
    cfg.sinkTokens = 0;
    cfg.topK = 32;
    cfg.defaultThreshold = 0; // isolate the k effect from filtering

    Pipeline short_ctx(1000, 1);
    Pipeline long_ctx(8000, 1);
    const auto [short_loss, sr] = short_ctx.evaluate(cfg, 12);
    const auto [long_loss, lr] = long_ctx.evaluate(cfg, 12);
    EXPECT_GT(long_loss, short_loss);
}

TEST(Integration, WindowImprovesQualityAtSameK)
{
    // The Fig.-3b mechanism: the dense sliding window reduces the
    // burden on the sparse path.
    LongSightConfig no_window;
    no_window.windowSize = 0;
    no_window.sinkTokens = 0;
    no_window.topK = 64;

    LongSightConfig hybrid = no_window;
    hybrid.windowSize = 512;
    hybrid.sinkTokens = 16;

    Pipeline p1(6000, 2), p2(6000, 2);
    const auto [loss_plain, r1] = p1.evaluate(no_window, 12);
    const auto [loss_hybrid, r2] = p2.evaluate(hybrid, 12);
    EXPECT_LT(loss_hybrid, loss_plain);
}

TEST(Integration, ItqAllowsHigherThresholdAtSameQuality)
{
    // The Fig.-3c mechanism, stated operationally: at a fixed
    // aggressive threshold, ITQ loses less softmax mass than raw sign
    // bits (equivalently, it reaches a higher filter ratio at matched
    // quality).
    const size_t context = 6000;
    const int threshold = static_cast<int>(kDim * 0.58);

    LongSightConfig cfg;
    cfg.windowSize = 512;
    cfg.sinkTokens = 16;
    cfg.topK = 64;
    cfg.defaultThreshold = threshold;

    Pipeline raw(context, 3);
    Pipeline itq(context, 3);
    Rng rng(99);
    itq.trainItq(rng);

    const auto [raw_loss, raw_ratio] = raw.evaluate(cfg, 16);
    const auto [itq_loss, itq_ratio] = itq.evaluate(cfg, 16);

    // ITQ must not trade meaningfully worse quality...
    EXPECT_LT(itq_loss, raw_loss + 0.02);
    // ...and must keep enough relevant keys that quality is usable
    // while raw signs at this threshold are materially worse.
    EXPECT_LT(itq_loss, raw_loss * 1.05 + 1e-3);
}

TEST(Integration, ThresholdSweepTracesParetoFrontier)
{
    // Fig. 4 mechanism: raising the threshold increases the filter
    // ratio and (weakly) the lost mass.
    Pipeline p(5000, 4);
    LongSightConfig cfg;
    cfg.windowSize = 256;
    cfg.sinkTokens = 16;
    cfg.topK = 128;

    double prev_ratio = 0.0;
    for (int th : {0, 28, 34, 40, 46}) {
        cfg.defaultThreshold = th;
        Pipeline fresh(5000, 4);
        const auto [loss, ratio] = fresh.evaluate(cfg, 10);
        EXPECT_GE(ratio, prev_ratio * 0.98) << "threshold " << th;
        prev_ratio = ratio;
    }
    EXPECT_GT(prev_ratio, 2.0) << "aggressive threshold must filter";
}

TEST(Integration, GqaGroupRoundTripThroughDevice)
{
    // Four query heads sharing one KV head (GQA 32/8), evaluated both
    // on the software path and as a single grouped DReX offload.
    const size_t n = 1200;
    const uint32_t window = 128, sinks = 16, k = 48;
    const int threshold = 34;

    Pipeline p(n, 5);
    Rng rng(55);
    p.trainItq(rng);

    DrexConfig dc;
    dc.numKvHeads = 1;
    dc.numLayers = 1;
    dc.headDim = kDim;
    DrexDevice dev(dc);
    KvCache &dev_cache =
        dev.writeContext(0, 0, 0, p.wl.keys(), p.wl.values());
    dev_cache.setItqRotation(p.cache->itqRotation());

    Matrix queries(4, kDim);
    Matrix filter_queries(4, kDim);
    for (uint32_t q = 0; q < 4; ++q) {
        const auto qv = p.wl.drawQuery();
        queries.setRow(q, qv.data());
        const auto qf = p.cache->toFilterSpace(qv);
        filter_queries.setRow(q, qf.data());
    }

    OffloadSpec spec;
    spec.sparseBegin = sinks;
    spec.sparseEnd = n - window;
    spec.numQueries = 4;
    spec.k = k;
    spec.threshold = threshold;
    spec.cache = &dev_cache;
    spec.queries = &queries;
    spec.filterQueries = &filter_queries;

    AttentionRequest req;
    req.headOffloads.push_back(spec);
    dev.submit(std::move(req));
    const auto resp = dev.processAll();
    const auto &head = resp[0].headResults[0];

    LongSightConfig cfg;
    cfg.windowSize = window;
    cfg.sinkTokens = sinks;
    cfg.topK = k;
    cfg.defaultThreshold = threshold;
    LongSightAttn attn(cfg, 1);

    ASSERT_EQ(head.topk.size(), 4u);
    for (uint32_t q = 0; q < 4; ++q) {
        const auto sw = attn.computeHead(queries.rowVec(q), *p.cache, 0);
        std::vector<uint32_t> sw_sparse;
        for (uint32_t idx : sw.attended)
            if (idx >= sinks && idx < n - window)
                sw_sparse.push_back(idx);
        std::vector<uint32_t> hw_sparse;
        for (const auto &e : head.topk[q])
            hw_sparse.push_back(e.index);
        std::sort(hw_sparse.begin(), hw_sparse.end());
        EXPECT_EQ(hw_sparse, sw_sparse) << "query " << q;
    }
}

TEST(Integration, HybridLosesAlmostNothingAtGenerousSettings)
{
    // W = 1024, k = 1024 at 4K context: the paper's default operating
    // point must retain nearly all softmax mass on this workload.
    Pipeline p(4000, 6);
    LongSightConfig cfg;
    cfg.windowSize = 1024;
    cfg.sinkTokens = 16;
    cfg.topK = 1024;
    cfg.defaultThreshold = 0;
    const auto [loss, ratio] = p.evaluate(cfg, 8);
    EXPECT_LT(loss, 0.01);
}

TEST(Integration, UnboundedKIsExactlyDense)
{
    // k >= sparse region and threshold 0: nothing is dropped at all.
    Pipeline p(3000, 6);
    LongSightConfig cfg;
    cfg.windowSize = 256;
    cfg.sinkTokens = 16;
    cfg.topK = 4096; // > context
    cfg.defaultThreshold = 0;
    const auto [loss, ratio] = p.evaluate(cfg, 4);
    EXPECT_LT(loss, 1e-6);
}

TEST(Integration, PerplexityProxyMapsBudgets)
{
    // 5% perplexity budget corresponds to ~4.9% lost mass under the
    // first-order mapping — sanity for the tuner's budget semantics.
    EXPECT_NEAR(pplIncreasePct(0.0488), 5.0, 0.1);
}

} // namespace
} // namespace longsight
