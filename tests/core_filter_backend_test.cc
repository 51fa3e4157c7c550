/**
 * @file
 * FilterBackend contract-parity suite: every filter family (SCF, INT8
 * estimation, centroid) must produce IDENTICAL survivor counts and
 * selected sets across kernel backends (scalar / AVX2 / NEON) and
 * across flat vs paged KV layouts — on a dimension that is not a
 * multiple of 64, over sub-ranges, and with empty sparse regions. Plus
 * the degeneracy pins: FilterKind::Scf must reproduce the raw
 * span-driver results (the pre-pluggable hybrid pipeline) bit-exactly,
 * and a centroid filter that keeps every block must equal exact top-k.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/filter_backend.hh"
#include "core/hybrid_attention.hh"
#include "core/kv_block_pool.hh"
#include "core/kv_cache.hh"
#include "core/multi_head.hh"
#include "tensor/kernels.hh"
#include "tensor/signbits.hh"
#include "tensor/topk_heap.hh"
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
 *  block size, both with the INT8 key arena enabled. */
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
        flat.enableKeyQuantization();
        paged.enableKeyQuantization();
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
runFilter(FilterKind kind, const KvCache &cache,
          const std::vector<float> &queries, uint32_t nq, size_t lo,
          size_t hi, int threshold, float scale, size_t k,
          bool quantized_scoring, double keep_fraction = 0.25)
{
    SelectResult r;
    r.kcap = std::min(k, hi - lo);
    r.sel.assign(nq * r.kcap, ScoredIndex{0.0f, 0});
    r.nsel.assign(nq, 0);
    r.surv.assign(nq, 0);

    FilterArgs fa;
    fa.queries = queries.data();
    fa.queryStride = kDim;
    fa.numQueries = nq;
    fa.cache = &cache;
    fa.lo = lo;
    fa.hi = hi;
    fa.threshold = threshold;
    fa.scale = scale;
    fa.k = k;
    fa.kcap = r.kcap;
    fa.quantizedScoring = quantized_scoring;
    fa.centroidBlockTokens = 48; // odd on purpose, != pool block size
    fa.centroidKeepFraction = keep_fraction;

    ScratchFrame frame(ScratchArena::forThisThread());
    const FilterSelection out{r.sel.data(), r.nsel.data(), r.surv.data()};
    filterBackendFor(kind).select(fa, frame, out);
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

/** Every kind x kernel backend x flat/paged combination must agree
 *  with the scalar/flat reference, over a sub-range of an odd-sized
 *  context. */
void
expectParityAcrossBackends(FilterKind kind, bool quantized_scoring)
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
    const SelectResult ref = runFilter(kind, caches.flat, queries, nq, lo,
                                       hi, th, scale, k,
                                       quantized_scoring);
    // A sub-range must never select outside [lo, hi).
    for (uint32_t g = 0; g < nq; ++g)
        for (size_t j = 0; j < ref.nsel[g]; ++j) {
            EXPECT_GE(ref.sel[g * ref.kcap + j].index, lo);
            EXPECT_LT(ref.sel[g * ref.kcap + j].index, hi);
        }

    for (KernelBackend b : availableBackends()) {
        setKernelBackend(b);
        const SelectResult f = runFilter(kind, caches.flat, queries, nq,
                                         lo, hi, th, scale, k,
                                         quantized_scoring);
        const SelectResult p = runFilter(kind, caches.paged, queries, nq,
                                         lo, hi, th, scale, k,
                                         quantized_scoring);
        expectSameSelection(ref, f, kernelBackendName(b));
        expectSameSelection(ref, p, kernelBackendName(b));
    }
    setKernelBackend(prev);
}

TEST(FilterBackend, ScfParityAcrossKernelsAndLayouts)
{
    expectParityAcrossBackends(FilterKind::Scf, false);
}

TEST(FilterBackend, ScfQuantizedParityAcrossKernelsAndLayouts)
{
    expectParityAcrossBackends(FilterKind::Scf, true);
}

TEST(FilterBackend, Int8ParityAcrossKernelsAndLayouts)
{
    expectParityAcrossBackends(FilterKind::Int8, false);
}

TEST(FilterBackend, CentroidParityAcrossKernelsAndLayouts)
{
    expectParityAcrossBackends(FilterKind::Centroid, false);
}

/** FilterKind::Scf must equal the raw span-driver call the
 *  pre-pluggable hybrid pipeline issued — the "today's scan results"
 *  degeneracy knob. */
TEST(FilterBackend, ScfDegeneratesToRawSpanDriver)
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
        // Pre-refactor call site: pack filter-space sign words, collect
        // spans, one fused scan->score->select driver call.
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

        const SelectResult got = runFilter(FilterKind::Scf, *cache,
                                           queries, nq, lo, hi, th, scale,
                                           k, false);
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

/** Keeping every centroid block degenerates to exact top-k over the
 *  whole region (every candidate is exact-scored). */
TEST(FilterBackend, CentroidKeepAllEqualsExactTopK)
{
    const size_t n = 300;
    const uint32_t nq = 2;
    CachePair caches(n);
    const auto queries = makeQueries(nq, 31);
    const size_t lo = 10, hi = n - 50;
    const float scale = 0.2f;
    const size_t k = 24, kcap = k;

    const SelectResult got =
        runFilter(FilterKind::Centroid, caches.flat, queries, nq, lo, hi,
                  0, scale, k, false, /*keep_fraction=*/1.0);
    for (uint32_t g = 0; g < nq; ++g) {
        // Exact reference: score the whole region with the same kernel
        // and keep the top k through the same heap.
        std::vector<uint32_t> ids(hi - lo);
        for (size_t i = lo; i < hi; ++i)
            ids[i - lo] = static_cast<uint32_t>(i);
        std::vector<float> scores(ids.size());
        batchDotScaleAt(queries.data() + g * kDim, caches.flat.keysStorage(),
                        ids.data(), ids.size(), scale, scores.data());
        std::vector<ScoredIndex> heap(k);
        size_t hs = 0;
        for (size_t j = 0; j < ids.size(); ++j)
            hs = topk_heap::push(heap.data(), hs, k,
                                 ScoredIndex{scores[j], ids[j]});
        topk_heap::sortBestFirst(heap.data(), hs);

        ASSERT_EQ(got.nsel[g], hs);
        EXPECT_EQ(got.surv[g], hi - lo); // every token was a candidate
        for (size_t j = 0; j < hs; ++j) {
            EXPECT_EQ(got.sel[g * kcap + j].index, heap[j].index);
            EXPECT_EQ(got.sel[g * kcap + j].score, heap[j].score);
        }
    }
}

/** INT8 estimation retrieves exactly its selections: survivors ==
 *  selected, and estimates rank plausibly (top-1 exact vs estimated
 *  overlap is not required, ordering determinism is). */
TEST(FilterBackend, Int8SurvivorsEqualSelections)
{
    const size_t n = 260;
    const uint32_t nq = 3;
    CachePair caches(n);
    const auto queries = makeQueries(nq, 5);
    const SelectResult r = runFilter(FilterKind::Int8, caches.flat,
                                     queries, nq, 8, n - 70, 0, 0.3f, 16,
                                     false);
    for (uint32_t g = 0; g < nq; ++g) {
        EXPECT_EQ(r.surv[g], r.nsel[g]);
        EXPECT_EQ(r.nsel[g], 16u); // region >> k: heap always fills
        // Best-first contract: scores non-increasing.
        for (size_t j = 1; j < r.nsel[g]; ++j)
            EXPECT_GE(r.sel[g * r.kcap + j - 1].score,
                      r.sel[g * r.kcap + j].score);
    }
}

/** Through the full hybrid-attention stack: an empty sparse region
 *  (window covers the whole context) must behave identically for
 *  every filter kind, and each kind must run end-to-end. */
TEST(FilterBackend, HybridEmptyRegionIdenticalAcrossKinds)
{
    const size_t n = 100;
    const uint32_t kv_heads = 1, q_heads = 2;
    LongSightConfig base;
    base.windowSize = 256; // > n: no sparse region at all
    base.sinkTokens = 4;
    base.topK = 16;

    Rng rng(3);
    Matrix queries(q_heads, kDim);
    for (uint32_t q = 0; q < q_heads; ++q)
        queries.setRow(q, rng.gaussianVec(kDim).data());

    std::vector<LayerAttentionResult> results;
    for (FilterKind kind :
         {FilterKind::Scf, FilterKind::Int8, FilterKind::Centroid}) {
        CachePair caches(n);
        LongSightConfig cfg = base;
        cfg.filter = kind;
        MultiHeadLongSight mh(cfg, q_heads, kv_heads, kDim);
        std::vector<KvCache> layer;
        layer.emplace_back(caches.flat);
        results.push_back(mh.compute(queries, layer));
        for (uint32_t q = 0; q < q_heads; ++q) {
            EXPECT_FALSE(results.back().perQuery[q].usedSparse);
            EXPECT_EQ(results.back().perQuery[q].sparseSelected, 0u);
        }
    }
    for (size_t i = 1; i < results.size(); ++i) {
        ASSERT_EQ(results[0].outputs.size(), results[i].outputs.size());
        EXPECT_EQ(0, std::memcmp(results[0].outputs.data(),
                                 results[i].outputs.data(),
                                 results[0].outputs.size() *
                                     sizeof(float)));
    }
}

/** End-to-end hybrid runs for the estimation kinds: sane attended
 *  sets, flat == paged outputs byte-identical. */
TEST(FilterBackend, HybridFlatPagedIdenticalPerKind)
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

    for (FilterKind kind :
         {FilterKind::Scf, FilterKind::Int8, FilterKind::Centroid}) {
        cfg.filter = kind;
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
        for (uint32_t h = 0; h < kv_heads; ++h) {
            flat[h].enableKeyQuantization();
            paged[h].enableKeyQuantization();
        }

        const LayerAttentionResult a = mh.compute(queries, flat);
        const LayerAttentionResult b = mh.compute(queries, paged);
        ASSERT_EQ(a.outputs.size(), b.outputs.size()) << int(kind);
        EXPECT_EQ(0, std::memcmp(a.outputs.data(), b.outputs.data(),
                                 a.outputs.size() * sizeof(float)))
            << filterKindName(kind);
        for (uint32_t q = 0; q < q_heads; ++q) {
            EXPECT_EQ(a.perQuery[q].attended, b.perQuery[q].attended)
                << filterKindName(kind);
            EXPECT_TRUE(a.perQuery[q].usedSparse);
            EXPECT_GT(a.perQuery[q].sparseSelected, 0u);
        }
    }
}

} // namespace
} // namespace longsight
