/**
 * @file
 * Paged-vs-flat differential suite for the block-pool KV cache: the
 * paged layout must be *bit-identical* to the flat layout through
 * every read path — per-row accessors, span-driver scans, hybrid
 * attention outputs — for any block size, including contexts that are
 * not block multiples. Plus the paged-only machinery: copy-on-write
 * fork isolation, prefix publish/adopt, and SCF-driven tier
 * promotion/eviction round-trips that never change an output.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/attention.hh"
#include "core/kv_block_pool.hh"
#include "core/kv_cache.hh"
#include "core/multi_head.hh"
#include "tensor/kernels.hh"
#include "tensor/linalg.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

constexpr uint32_t kDim = 64;

/** Deterministic token stream shared by every cache under test. */
struct TokenStream
{
    std::vector<std::vector<float>> keys, values;

    explicit TokenStream(size_t n, uint64_t seed = 7)
    {
        Rng rng(seed);
        for (size_t i = 0; i < n; ++i) {
            keys.push_back(rng.gaussianVec(kDim));
            values.push_back(rng.gaussianVec(kDim));
        }
    }

    void fill(KvCache &cache, size_t begin, size_t end) const
    {
        for (size_t i = begin; i < end; ++i)
            cache.append(keys[i].data(), values[i].data());
    }
};

void
expectRowsIdentical(const KvCache &flat, const KvCache &paged)
{
    ASSERT_EQ(flat.size(), paged.size());
    for (size_t i = 0; i < flat.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(flat.keyRow(i), paged.keyRow(i),
                                 kDim * sizeof(float)))
            << "key row " << i;
        EXPECT_EQ(0, std::memcmp(flat.valueRow(i), paged.valueRow(i),
                                 kDim * sizeof(float)))
            << "value row " << i;
        EXPECT_EQ(flat.rawSigns(i), paged.rawSigns(i)) << "signs " << i;
        EXPECT_EQ(flat.filterSigns(i), paged.filterSigns(i))
            << "filter signs " << i;
    }
}

TEST(PagedCache, RowAccessMatchesFlatAcrossBlockSizes)
{
    const size_t n = 233; // deliberately not a block multiple
    TokenStream tokens(n);
    KvCache flat(kDim);
    tokens.fill(flat, 0, n);

    for (uint32_t bt : {16u, 64u, 128u}) {
        KvBlockPool pool(kDim, bt, 64);
        KvCache paged(pool);
        EXPECT_TRUE(paged.paged());
        EXPECT_FALSE(flat.paged());
        tokens.fill(paged, 0, n);
        expectRowsIdentical(flat, paged);

        // The block table holds ceil(n / bt) blocks.
        EXPECT_EQ(pool.usedBlocks(), (n + bt - 1) / bt);
    }
}

TEST(PagedCache, CollectSpansTilesTheRange)
{
    const size_t n = 200;
    TokenStream tokens(n);
    KvBlockPool pool(kDim, 48, 16);
    KvCache cache(pool);
    tokens.fill(cache, 0, n);

    std::vector<ScanSpan> spans(cache.maxSpans(10, 190));
    const size_t nspans = cache.collectSpans(10, 190, spans.data());
    size_t logical = 10;
    for (size_t s = 0; s < nspans; ++s) {
        EXPECT_EQ(spans[s].logicalBase, logical);
        EXPECT_GT(spans[s].count, 0u);
        // Never crosses a block boundary.
        EXPECT_EQ(spans[s].physBegin / 48,
                  (spans[s].physBegin + spans[s].count - 1) / 48);
        // Every row maps where physRow says.
        for (size_t i = 0; i < spans[s].count; ++i)
            EXPECT_EQ(spans[s].physBegin + i,
                      cache.physRow(spans[s].logicalBase + i));
        logical += spans[s].count;
    }
    EXPECT_EQ(logical, 190u);

    // Flat mode: the single identity span.
    KvCache flat(kDim);
    tokens.fill(flat, 0, n);
    ScanSpan one;
    ASSERT_EQ(flat.collectSpans(10, 190, &one), 1u);
    EXPECT_EQ(one.physBegin, 10u);
    EXPECT_EQ(one.count, 180u);
    EXPECT_EQ(one.logicalBase, 10u);
}

TEST(PagedCache, SpanDriversMatchFlatIdentitySpan)
{
    const size_t n = 333;
    TokenStream tokens(n);
    KvCache flat(kDim);
    KvBlockPool pool(kDim, 80, 16);
    KvCache paged(pool);
    tokens.fill(flat, 0, n);
    tokens.fill(paged, 0, n);

    Rng rng(5);
    const size_t nq = 3, wpr = (kDim + 63) / 64;
    std::vector<float> queries(nq * kDim);
    std::vector<uint64_t> qwords(nq * wpr);
    for (size_t g = 0; g < nq; ++g) {
        const auto q = rng.gaussianVec(kDim);
        std::copy(q.begin(), q.end(), queries.begin() + g * kDim);
        packSigns(q.data(), kDim, qwords.data() + g * wpr);
    }

    const size_t lo = 8, hi = n - 64;
    const int th = kDim / 2 - 2;
    const float scale = 0.125f;
    const size_t k = 40, kcap = k;

    // The flat cache's one identity span.
    const ScanSpan flat_span{lo, hi - lo, lo};
    std::vector<ScoredIndex> ref_sel(nq * kcap);
    std::vector<size_t> ref_sizes(nq), ref_surv(nq);
    batchScoreSelectMultiSpans(
        qwords.data(), nq, flat.filterSignsStorage(), &flat_span, 1, th,
        queries.data(), kDim, flat.keysStorage(), scale, k, ref_sel.data(),
        kcap, ref_sizes.data(), ref_surv.data());

    // The paged cache's block-table spans.
    std::vector<ScanSpan> spans(paged.maxSpans(lo, hi));
    const size_t nspans = paged.collectSpans(lo, hi, spans.data());
    std::vector<ScoredIndex> got_sel(nq * kcap);
    std::vector<size_t> got_sizes(nq), got_surv(nq), span_surv(nspans);
    batchScoreSelectMultiSpans(
        qwords.data(), nq, paged.filterSignsStorage(), spans.data(),
        nspans, th, queries.data(), kDim, paged.keysStorage(), scale, k,
        got_sel.data(), kcap, got_sizes.data(), got_surv.data(),
        span_surv.data());

    size_t total_surv = 0;
    for (size_t g = 0; g < nq; ++g) {
        EXPECT_EQ(ref_sizes[g], got_sizes[g]);
        EXPECT_EQ(ref_surv[g], got_surv[g]);
        for (size_t j = 0; j < ref_sizes[g]; ++j) {
            EXPECT_EQ(ref_sel[g * kcap + j].index,
                      got_sel[g * kcap + j].index);
            EXPECT_EQ(ref_sel[g * kcap + j].score,
                      got_sel[g * kcap + j].score);
        }
        total_surv += ref_surv[g];
    }
    size_t span_total = 0;
    for (size_t s = 0; s < nspans; ++s)
        span_total += span_surv[s];
    EXPECT_EQ(span_total, total_surv);

    // Scan-only driver parity: survivors arrive as logical ids.
    std::vector<uint32_t> ref_ids(nq * n), got_ids(nq * n);
    std::vector<size_t> ref_counts(nq), got_counts(nq);
    batchScanMultiSpans(qwords.data(), nq, flat.filterSignsStorage(),
                        &flat_span, 1, th, ref_ids.data(), n,
                        ref_counts.data());
    batchScanMultiSpans(qwords.data(), nq, paged.filterSignsStorage(),
                        spans.data(), nspans, th, got_ids.data(), n,
                        got_counts.data());
    for (size_t g = 0; g < nq; ++g) {
        ASSERT_EQ(ref_counts[g], got_counts[g]);
        for (size_t j = 0; j < ref_counts[g]; ++j)
            EXPECT_EQ(ref_ids[g * n + j], got_ids[g * n + j]);
    }
}

TEST(PagedCache, DenseProbsGroupMatchesOneQueryDenseAttention)
{
    // Verification B's grouped dense softmax: every row, for groups
    // that fill one AVX2 tile, spill into a second and chunk past
    // kDotMultiQueries, equals a one-query denseAttentionInto's probs
    // bit for bit, and the paged cache equals the flat one.
    const size_t n = 233;
    TokenStream tokens(n);
    KvCache flat(kDim);
    tokens.fill(flat, 0, n);
    KvBlockPool pool(kDim, 48, 16);
    KvCache paged(pool);
    tokens.fill(paged, 0, n);

    Rng rng(9);
    const size_t max_nq = 11, stride = n + 3;
    std::vector<float> queries(max_nq * kDim);
    for (float &v : queries)
        v = static_cast<float>(rng.gaussian());
    const float scale = 0.125f;

    std::vector<float> want(max_nq * n), want_out(kDim), paged_out(kDim);
    std::vector<float> one(n);
    for (size_t g = 0; g < max_nq; ++g) {
        denseAttentionInto(queries.data() + g * kDim, flat, scale,
                           want.data() + g * n, want_out.data());
        denseAttentionInto(queries.data() + g * kDim, paged, scale,
                           one.data(), paged_out.data());
        EXPECT_EQ(0, std::memcmp(one.data(), want.data() + g * n,
                                 n * sizeof(float)))
            << "paged probs, query " << g;
        EXPECT_EQ(0, std::memcmp(paged_out.data(), want_out.data(),
                                 kDim * sizeof(float)))
            << "paged output, query " << g;
    }
    for (size_t nq : {size_t{1}, size_t{4}, size_t{6}, max_nq}) {
        for (const KvCache *cache : {&flat, &paged}) {
            std::vector<float> got(nq * stride);
            denseProbsInto(queries.data(), kDim, nq, *cache, scale,
                           got.data(), stride);
            for (size_t g = 0; g < nq; ++g)
                EXPECT_EQ(0, std::memcmp(got.data() + g * stride,
                                         want.data() + g * n,
                                         n * sizeof(float)))
                    << "group of " << nq << ", query " << g
                    << (cache->paged() ? " (paged)" : " (flat)");
        }
    }
}

/** Hybrid attention outputs must be byte-identical flat vs. paged,
 *  with and without ITQ. */
void
expectHybridIdentical(bool itq, uint32_t block_tokens)
{
    const size_t n = 517;
    const uint32_t kv_heads = 2, q_heads = 4;
    TokenStream tokens(n);

    LongSightConfig cfg;
    cfg.windowSize = 96;
    cfg.sinkTokens = 4;
    cfg.topK = 48;
    cfg.defaultThreshold = kDim / 2;
    MultiHeadLongSight mh(cfg, q_heads, kv_heads, kDim);

    KvBlockPool pool(kDim, block_tokens, 64);
    std::vector<KvCache> flat, paged;
    for (uint32_t h = 0; h < kv_heads; ++h) {
        flat.emplace_back(kDim);
        paged.emplace_back(pool);
    }
    for (uint32_t h = 0; h < kv_heads; ++h) {
        tokens.fill(flat[h], 0, n);
        tokens.fill(paged[h], 0, n);
        if (itq) {
            // Any orthogonal rotation works; identity keeps the test
            // focused on plumbing (rotated path is still exercised).
            flat[h].setItqRotation(Matrix::identity(kDim));
            paged[h].setItqRotation(Matrix::identity(kDim));
        }
    }

    Rng rng(11);
    Matrix queries(q_heads, kDim);
    for (uint32_t q = 0; q < q_heads; ++q)
        queries.setRow(q, rng.gaussianVec(kDim).data());

    const LayerAttentionResult a = mh.compute(queries, flat);
    const LayerAttentionResult b = mh.compute(queries, paged);
    ASSERT_EQ(a.outputs.rows(), b.outputs.rows());
    EXPECT_EQ(0, std::memcmp(a.outputs.data(), b.outputs.data(),
                             a.outputs.size() * sizeof(float)));
    for (uint32_t q = 0; q < q_heads; ++q) {
        EXPECT_EQ(a.perQuery[q].attended, b.perQuery[q].attended);
        EXPECT_EQ(a.perQuery[q].sparseSurvivors,
                  b.perQuery[q].sparseSurvivors);
    }
}

TEST(PagedCache, HybridAttentionIdenticalPlain)
{
    expectHybridIdentical(false, 64);
    expectHybridIdentical(false, 100);
}

TEST(PagedCache, HybridAttentionIdenticalItq)
{
    expectHybridIdentical(true, 128);
    expectHybridIdentical(true, 48);
}

TEST(PagedCache, ForkSharesFullBlocksAndIsolatesAppends)
{
    const uint32_t bt = 32;
    const size_t n = 80; // 2 full blocks + 16-token tail
    TokenStream tokens(n + 40);
    KvBlockPool pool(kDim, bt, 16);
    KvCache parent(pool);
    tokens.fill(parent, 0, n);
    EXPECT_EQ(pool.usedBlocks(), 3u);

    KvCache child(pool);
    child.forkFrom(parent);
    ASSERT_EQ(child.size(), n);
    expectRowsIdentical(parent, child);
    // Two full blocks shared, tail re-appended privately.
    EXPECT_EQ(pool.usedBlocks(), 4u);

    // Divergent appends: child takes tokens [n, n+40), parent stays.
    tokens.fill(child, n, n + 40);
    std::vector<std::vector<float>> parent_rows;
    for (size_t i = 0; i < n; ++i)
        parent_rows.emplace_back(parent.keyRow(i),
                                 parent.keyRow(i) + kDim);
    ASSERT_EQ(child.size(), n + 40);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(0, std::memcmp(parent.keyRow(i), parent_rows[i].data(),
                                 kDim * sizeof(float)));
        EXPECT_EQ(0, std::memcmp(child.keyRow(i), parent_rows[i].data(),
                                 kDim * sizeof(float)));
    }

    // Copy construction is the same share; destruction releases.
    const uint32_t used_before = pool.usedBlocks();
    {
        KvCache copy(parent);
        ASSERT_EQ(copy.size(), n);
        expectRowsIdentical(parent, copy);
        EXPECT_GT(pool.usedBlocks(), used_before);
    }
    EXPECT_EQ(pool.usedBlocks(), used_before);
}

/** Copy and move, the same in both modes: a copy reproduces rows and
 *  filter signs and diverges on append; a move leaves the source an
 *  empty, reusable cache; no block outlives its caches. */
class CacheCopyMove : public ::testing::TestWithParam<bool>
{
};

TEST_P(CacheCopyMove, CopiesMatchAndMovesEmptyTheSource)
{
    const bool paged = GetParam();
    const size_t n = 80; // paged: 2 full 32-token blocks + a 16 tail
    TokenStream tokens(n);
    const TokenStream extra(8, 11), other(8, 12);
    KvBlockPool pool(kDim, 32, 32);
    const uint32_t used_before = pool.usedBlocks();
    const auto make = [&] { return paged ? KvCache(pool) : KvCache(kDim); };
    Rng rng(21);
    const Matrix rotation = randomOrthogonal(kDim, rng);
    const auto build = [&] {
        KvCache c = make();
        c.setItqRotation(rotation);
        tokens.fill(c, 0, n);
        return c;
    };
    {
        KvCache src = build();
        ASSERT_EQ(src.paged(), paged);
        const auto expectSameAs = [&](const KvCache &want,
                                      const KvCache &got) {
            EXPECT_EQ(got.paged(), paged);
            EXPECT_TRUE(got.hasItqRotation());
            expectRowsIdentical(want, got);
        };

        KvCache constructed(src);
        expectSameAs(src, constructed);
        KvCache assigned = make();
        tokens.fill(assigned, 0, 5); // replaced by the assignment
        assigned = src;
        expectSameAs(src, assigned);

        // Copies and source diverge: every append lands in rows only
        // its own cache reads (the paged tail block is never shared).
        extra.fill(constructed, 0, 8);
        extra.fill(assigned, 0, 8);
        other.fill(src, 0, 8);
        KvCache want_copy = build();
        extra.fill(want_copy, 0, 8);
        KvCache want_src = build();
        other.fill(want_src, 0, 8);
        expectSameAs(want_src, src);
        expectSameAs(want_copy, constructed);
        expectSameAs(want_copy, assigned);

        KvCache moved(std::move(constructed));
        EXPECT_EQ(constructed.size(), 0u);
        KvCache target = make();
        tokens.fill(target, 0, 40);
        target = std::move(moved);
        EXPECT_EQ(moved.size(), 0u);
        expectSameAs(want_copy, target);

        // A moved-from cache is empty, unrotated and still appendable.
        for (KvCache *c : {&constructed, &moved}) {
            EXPECT_EQ(c->paged(), paged);
            EXPECT_FALSE(c->hasItqRotation());
            tokens.fill(*c, 0, 3);
            ASSERT_EQ(c->size(), 3u);
            EXPECT_EQ(0, std::memcmp(c->keyRow(2), src.keyRow(2),
                                     kDim * sizeof(float)));
        }
    }
    EXPECT_EQ(pool.usedBlocks(), used_before);
}

INSTANTIATE_TEST_SUITE_P(FlatAndPaged, CacheCopyMove, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &p) {
                             return p.param ? "Paged" : "Flat";
                         });

TEST(PagedCache, ItqInstallUnsharesBlocks)
{
    const uint32_t bt = 32;
    const size_t n = 64; // exactly 2 full blocks
    TokenStream tokens(n);
    KvBlockPool pool(kDim, bt, 16);
    KvCache parent(pool);
    tokens.fill(parent, 0, n);
    KvCache child(pool);
    child.forkFrom(parent);
    EXPECT_EQ(pool.usedBlocks(), 2u); // fully shared

    // Child installs a rotation: its blocks must split off so the
    // parent's (raw) filter signs stay untouched.
    const SignBits before = parent.filterSigns(0);
    child.setItqRotation(Matrix::identity(kDim));
    EXPECT_EQ(pool.usedBlocks(), 4u);
    EXPECT_EQ(parent.filterSigns(0), before);
    // Identity rotation: child's filter signs equal raw signs.
    for (size_t i = 0; i < n; i += 7)
        EXPECT_EQ(child.filterSigns(i), child.rawSigns(i));
}

TEST(PagedCache, PrefixPublishAdoptRoundTrip)
{
    const uint32_t bt = 32;
    const size_t prefix = 96; // 3 full blocks
    TokenStream tokens(prefix + 16);
    KvBlockPool pool(kDim, bt, 16);

    const uint64_t hash = 0xfeedULL;
    {
        KvCache prompter(pool);
        tokens.fill(prompter, 0, prefix + 10); // partial 4th block
        EXPECT_EQ(prompter.publishPrefix(hash), prefix);
        // Re-publish under the same hash is refused.
        EXPECT_EQ(prompter.publishPrefix(hash), 0u);
    } // prompter retires; registry pins keep the prefix alive
    EXPECT_EQ(pool.usedBlocks(), 3u);

    KvCache adopter(pool);
    EXPECT_EQ(adopter.adoptPrefix(0xbeefULL), 0u); // miss
    EXPECT_EQ(adopter.adoptPrefix(hash), prefix);  // hit
    ASSERT_EQ(adopter.size(), prefix);
    KvCache reference(kDim);
    tokens.fill(reference, 0, prefix);
    expectRowsIdentical(reference, adopter);

    // Adopted context keeps growing privately.
    tokens.fill(adopter, prefix, prefix + 16);
    EXPECT_EQ(adopter.size(), prefix + 16);

    EXPECT_EQ(pool.prefixHits(), 1u);
    EXPECT_EQ(pool.prefixMisses(), 1u);
    EXPECT_EQ(pool.prefixSharedTokens(), prefix);

    pool.unpublishPrefix(hash);
    // Adopter still holds its references; blocks stay allocated.
    EXPECT_GE(pool.usedBlocks(), 4u);
}

TEST(PagedCache, RebalancePromotesHotBlocksWithoutChangingOutputs)
{
    const uint32_t bt = 32;
    const size_t n = 4 * bt;
    TokenStream tokens(n);
    KvBlockPool pool(kDim, bt, 8, /*hbm_budget_blocks=*/2);
    KvCache cache(pool);
    tokens.fill(cache, 0, n);

    // Everything starts in the expander tier.
    EXPECT_EQ(pool.hbmResident(), 0u);

    // Blocks 1 and 3 keep surviving the filter; 0 and 2 do not.
    std::vector<ScanSpan> spans(cache.maxSpans(0, n));
    const size_t nspans = cache.collectSpans(0, n, spans.data());
    ASSERT_EQ(nspans, 4u);
    cache.recordFilterScan(spans[1], bt, 30);
    cache.recordFilterScan(spans[3], bt, 20);
    cache.recordFilterScan(spans[0], bt, 1);

    Rng rng(123);
    const auto q = rng.gaussianVec(kDim);
    std::vector<float> before(n);
    for (size_t i = 0; i < n; ++i)
        before[i] = dot(q.data(), cache.keyRow(i), kDim);

    EXPECT_EQ(pool.rebalance(), 2u);
    EXPECT_EQ(pool.promotions(), 2u);
    EXPECT_EQ(pool.hbmResident(), 2u);
    EXPECT_EQ(pool.tier(cache.physRow(bt) / bt), Tier::Hbm);
    EXPECT_EQ(pool.tier(cache.physRow(3 * bt) / bt), Tier::Hbm);
    EXPECT_EQ(pool.tier(cache.physRow(0) / bt), Tier::Expander);

    // Residency is accounting only: every score is unchanged.
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(dot(q.data(), cache.keyRow(i), kDim), before[i]);

    // Popularity flips: block 0 becomes the hot one; 3 drops out.
    cache.recordFilterScan(spans[0], bt, 200);
    EXPECT_GT(pool.rebalance(), 0u);
    EXPECT_GT(pool.evictions(), 0u);
    EXPECT_EQ(pool.tier(cache.physRow(0) / bt), Tier::Hbm);
    EXPECT_EQ(pool.hbmResident(), 2u);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(dot(q.data(), cache.keyRow(i), kDim), before[i]);
}

TEST(PagedCache, PoolExhaustionAndReuse)
{
    KvBlockPool pool(kDim, 16, 4);
    std::vector<uint32_t> held;
    for (int i = 0; i < 4; ++i) {
        const uint32_t b = pool.allocBlock();
        ASSERT_NE(b, kInvalidBlock);
        held.push_back(b);
    }
    EXPECT_EQ(pool.allocBlock(), kInvalidBlock);
    EXPECT_EQ(pool.freeBlocks(), 0u);
    EXPECT_DOUBLE_EQ(pool.occupancy(), 1.0);
    pool.releaseBlock(held.back());
    held.pop_back();
    EXPECT_NE(pool.allocBlock(), kInvalidBlock);
}

} // namespace
} // namespace longsight
