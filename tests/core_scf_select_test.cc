/**
 * @file
 * scfSelect contract suite: the runtime's one sparse-region selector
 * must produce IDENTICAL survivor counts and selected sets across
 * kernel backends (scalar / AVX2 / NEON) and across flat vs paged KV
 * layouts — on a dimension that is not a multiple of 64, over
 * sub-ranges, and with empty sparse regions. It must also equal one
 * raw call of the fused span driver it wraps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/hybrid_attention.hh"
#include "core/kv_block_pool.hh"
#include "core/kv_cache.hh"
#include "core/multi_head.hh"
#include "core/scf.hh"
#include "tensor/kernels.hh"
#include "tensor/signbits.hh"
#include "tensor/topk_selector.hh"
#include "util/rng.hh"
#include "util/scratch_arena.hh"

namespace longsight {
namespace {

constexpr uint32_t kDim = 70; // deliberately NOT a multiple of 64

std::vector<KernelBackend>
availableBackends()
{
    std::vector<KernelBackend> out{KernelBackend::Scalar};
    for (auto b : {KernelBackend::Avx2, KernelBackend::Neon})
        if (kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

/** Two caches over one token stream: flat, and paged with an odd
 *  block size. */
struct CachePair
{
    KvBlockPool pool{kDim, 48, 64};
    KvCache flat{kDim};
    KvCache paged{pool};

    explicit CachePair(size_t n, uint64_t seed = 7)
    {
        Rng rng(seed);
        for (size_t i = 0; i < n; ++i) {
            const auto k = rng.gaussianVec(kDim);
            const auto v = rng.gaussianVec(kDim);
            flat.append(k.data(), v.data());
            paged.append(k.data(), v.data());
        }
    }
};

std::vector<float>
makeQueries(uint32_t nq, uint64_t seed = 11)
{
    Rng rng(seed);
    std::vector<float> out(nq * kDim);
    for (uint32_t g = 0; g < nq; ++g) {
        const auto q = rng.gaussianVec(kDim);
        std::copy(q.begin(), q.end(), out.begin() + g * kDim);
    }
    return out;
}

struct SelectResult
{
    size_t kcap = 0;
    std::vector<ScoredIndex> sel; // nq * kcap, valid up to nsel[g]
    std::vector<size_t> nsel, surv;
};

SelectResult
runSelect(const KvCache &cache, const std::vector<float> &queries,
          uint32_t nq, size_t lo, size_t hi, int threshold, float scale,
          size_t k)
{
    SelectResult r;
    r.kcap = std::min(k, hi - lo);
    r.sel.assign(nq * r.kcap, ScoredIndex{0.0f, 0});
    r.nsel.assign(nq, 0);
    r.surv.assign(nq, 0);
    ScratchFrame frame(ScratchArena::forThisThread());
    scfSelect(queries.data(), kDim, nq, cache, lo, hi, threshold, scale, k,
              frame, r.sel.data(), r.kcap, r.nsel.data(), r.surv.data());
    return r;
}

void
expectSameSelection(const SelectResult &a, const SelectResult &b,
                    const char *what)
{
    ASSERT_EQ(a.kcap, b.kcap) << what;
    ASSERT_EQ(a.nsel, b.nsel) << what;
    EXPECT_EQ(a.surv, b.surv) << what;
    for (size_t g = 0; g < a.nsel.size(); ++g)
        for (size_t j = 0; j < a.nsel[g]; ++j) {
            const ScoredIndex &x = a.sel[g * a.kcap + j];
            const ScoredIndex &y = b.sel[g * b.kcap + j];
            EXPECT_EQ(x.index, y.index)
                << what << " query " << g << " slot " << j;
            EXPECT_EQ(0, std::memcmp(&x.score, &y.score, sizeof(float)))
                << what << " query " << g << " slot " << j;
        }
}

/** Every kernel backend x flat/paged combination must agree with the
 *  scalar/flat reference, over a sub-range of an odd-sized context. */
TEST(ScfSelect, ParityAcrossKernelsAndLayouts)
{
    const size_t n = 333;
    const uint32_t nq = 3;
    CachePair caches(n);
    const auto queries = makeQueries(nq);
    const size_t lo = 9, hi = n - 62; // sub-range with ragged edges
    const int th = kDim / 2 - 3;
    const float scale = 0.25f;
    const size_t k = 40;

    const KernelBackend prev = activeKernelBackend();
    setKernelBackend(KernelBackend::Scalar);
    const SelectResult ref =
        runSelect(caches.flat, queries, nq, lo, hi, th, scale, k);
    // A sub-range must never select outside [lo, hi).
    for (uint32_t g = 0; g < nq; ++g)
        for (size_t j = 0; j < ref.nsel[g]; ++j) {
            EXPECT_GE(ref.sel[g * ref.kcap + j].index, lo);
            EXPECT_LT(ref.sel[g * ref.kcap + j].index, hi);
        }

    for (KernelBackend b : availableBackends()) {
        setKernelBackend(b);
        const SelectResult f =
            runSelect(caches.flat, queries, nq, lo, hi, th, scale, k);
        const SelectResult p =
            runSelect(caches.paged, queries, nq, lo, hi, th, scale, k);
        expectSameSelection(ref, f, kernelBackendName(b));
        expectSameSelection(ref, p, kernelBackendName(b));
    }
    setKernelBackend(prev);
}

/** scfSelect must equal the raw fused span-driver call it wraps, on
 *  flat and paged caches. */
TEST(ScfSelect, EqualsRawSpanDriver)
{
    const size_t n = 290;
    const uint32_t nq = 4;
    CachePair caches(n);
    const auto queries = makeQueries(nq, 23);
    const size_t lo = 4, hi = n - 80;
    const int th = kDim / 2 - 1;
    const float scale = 0.11f;
    const size_t k = 32, kcap = std::min(k, hi - lo);

    for (const KvCache *cache : {&caches.flat, &caches.paged}) {
        // Pack filter-space sign words, collect spans, one fused
        // scan->score->select driver call.
        const size_t wpr = (kDim + 63) / 64;
        std::vector<float> fq(kDim);
        std::vector<uint64_t> qwords(nq * wpr);
        for (uint32_t g = 0; g < nq; ++g) {
            cache->toFilterSpace(queries.data() + g * kDim, fq.data());
            packSigns(fq.data(), kDim, qwords.data() + g * wpr);
        }
        std::vector<ScanSpan> spans(cache->maxSpans(lo, hi));
        const size_t nspans = cache->collectSpans(lo, hi, spans.data());
        std::vector<ScoredIndex> want_sel(nq * kcap);
        std::vector<size_t> want_n(nq), want_surv(nq);
        batchScoreSelectMultiSpans(
            qwords.data(), nq, cache->filterSignsStorage(), spans.data(),
            nspans, th, queries.data(), kDim, cache->keysStorage(), scale,
            k, want_sel.data(), kcap, want_n.data(), want_surv.data());

        const SelectResult got =
            runSelect(*cache, queries, nq, lo, hi, th, scale, k);
        ASSERT_EQ(got.nsel, want_n);
        EXPECT_EQ(got.surv, want_surv);
        for (uint32_t g = 0; g < nq; ++g)
            for (size_t j = 0; j < want_n[g]; ++j) {
                EXPECT_EQ(got.sel[g * kcap + j].index,
                          want_sel[g * kcap + j].index);
                EXPECT_EQ(got.sel[g * kcap + j].score,
                          want_sel[g * kcap + j].score);
            }
    }
}

/** Through the full hybrid-attention stack: an empty sparse region
 *  (window covers the whole context) attends every token densely. */
TEST(ScfSelect, HybridEmptyRegionAttendsDensely)
{
    const size_t n = 100;
    const uint32_t kv_heads = 1, q_heads = 2;
    LongSightConfig cfg;
    cfg.windowSize = 256; // > n: no sparse region at all
    cfg.sinkTokens = 4;
    cfg.topK = 16;

    Rng rng(3);
    Matrix queries(q_heads, kDim);
    for (uint32_t q = 0; q < q_heads; ++q)
        queries.setRow(q, rng.gaussianVec(kDim).data());

    CachePair caches(n);
    MultiHeadLongSight mh(cfg, q_heads, kv_heads, kDim);
    std::vector<KvCache> layer;
    layer.emplace_back(caches.flat);
    const LayerAttentionResult r = mh.compute(queries, layer);
    for (uint32_t q = 0; q < q_heads; ++q) {
        EXPECT_FALSE(r.perQuery[q].usedSparse);
        EXPECT_EQ(r.perQuery[q].sparseSelected, 0u);
        EXPECT_EQ(r.perQuery[q].attended.size(), n);
    }
}

/** End-to-end hybrid run: sane attended sets, flat == paged outputs
 *  byte-identical. */
TEST(ScfSelect, HybridFlatPagedIdentical)
{
    const size_t n = 400;
    const uint32_t kv_heads = 2, q_heads = 4;
    LongSightConfig cfg;
    cfg.windowSize = 96;
    cfg.sinkTokens = 4;
    cfg.topK = 32;
    cfg.defaultThreshold = kDim / 2;

    Rng rng(17);
    Matrix queries(q_heads, kDim);
    for (uint32_t q = 0; q < q_heads; ++q)
        queries.setRow(q, rng.gaussianVec(kDim).data());

    MultiHeadLongSight mh(cfg, q_heads, kv_heads, kDim);
    KvBlockPool pool(kDim, 48, 64);
    std::vector<KvCache> flat, paged;
    Rng toks(9);
    for (uint32_t h = 0; h < kv_heads; ++h) {
        flat.emplace_back(kDim);
        paged.emplace_back(pool);
    }
    for (size_t i = 0; i < n; ++i) {
        const auto kv = toks.gaussianVec(kDim);
        const auto vv = toks.gaussianVec(kDim);
        for (uint32_t h = 0; h < kv_heads; ++h) {
            flat[h].append(kv.data(), vv.data());
            paged[h].append(kv.data(), vv.data());
        }
    }

    const LayerAttentionResult a = mh.compute(queries, flat);
    const LayerAttentionResult b = mh.compute(queries, paged);
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    EXPECT_EQ(0, std::memcmp(a.outputs.data(), b.outputs.data(),
                             a.outputs.size() * sizeof(float)));
    for (uint32_t q = 0; q < q_heads; ++q) {
        EXPECT_EQ(a.perQuery[q].attended, b.perQuery[q].attended);
        EXPECT_TRUE(a.perQuery[q].usedSparse);
        EXPECT_GT(a.perQuery[q].sparseSelected, 0u);
    }
}

} // namespace
} // namespace longsight
