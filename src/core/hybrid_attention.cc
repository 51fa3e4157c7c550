#include "core/hybrid_attention.hh"

#include <algorithm>
#include <cmath>

#include "core/attention.hh"
#include "core/scf.hh"
#include "core/topk.hh"
#include "tensor/kernels.hh"
#include "tensor/linalg.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/scratch_arena.hh"

namespace longsight {

LongSightAttn::LongSightAttn(LongSightConfig cfg, uint32_t num_kv_heads)
    : cfg_(cfg), numKvHeads_(num_kv_heads),
      thresholds_(num_kv_heads, cfg.defaultThreshold)
{
    LS_ASSERT(num_kv_heads > 0, "need at least one KV head");
    LS_ASSERT(cfg.topK > 0, "top-k must be positive");
}

void
LongSightAttn::setThreshold(uint32_t kv_head, int threshold)
{
    LS_ASSERT(kv_head < numKvHeads_, "KV head ", kv_head, " out of range");
    thresholds_[kv_head] = threshold;
}

void
LongSightAttn::setAllThresholds(const std::vector<int> &thresholds)
{
    LS_ASSERT(thresholds.size() == numKvHeads_,
              "threshold vector size mismatch");
    thresholds_ = thresholds;
}

int
LongSightAttn::threshold(uint32_t kv_head) const
{
    LS_ASSERT(kv_head < numKvHeads_, "KV head ", kv_head, " out of range");
    return thresholds_[kv_head];
}

void
LongSightAttn::densePartition(size_t n, size_t &sinks,
                              size_t &win_start) const
{
    sinks = std::min<size_t>(cfg_.sinkTokens, n);
    win_start = n > cfg_.windowSize ? n - cfg_.windowSize : 0;
    // The window never reaches into the sink prefix.
    win_start = std::max(win_start, sinks);
}

HeadAttentionResult
LongSightAttn::computeHead(const std::vector<float> &q, const KvCache &cache,
                           uint32_t kv_head) const
{
    LS_ASSERT(q.size() == cache.headDim(), "query dim mismatch");
    // The group path with one query IS the single-query path: per
    // query, the span drivers' output does not depend on the group
    // size, so there is exactly one implementation to keep correct.
    HeadAttentionResult r;
    computeGroupInto(q.data(), cache.headDim(), 1, cache, kv_head, &r);
    return r;
}

void
LongSightAttn::computeGroupInto(const float *queries, size_t query_stride,
                                uint32_t num_queries, const KvCache &cache,
                                uint32_t kv_head,
                                HeadAttentionResult *rs) const
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t n = cache.size();
    LS_ASSERT(n > 0, "attention over an empty context");
    LS_ASSERT(num_queries > 0, "attention needs at least one query");

    const size_t dim = cache.headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dim));

    size_t sinks, win_start;
    densePartition(n, sinks, win_start);
    const size_t sparse_raw = win_start - sinks;

    ScratchFrame frame(ScratchArena::forThisThread());

    // The attended set is built from three disjoint sources, each
    // already ascending: the sink prefix [0, sinks), the selected
    // sparse tokens (a subset of [sinks, win_start)), and the window
    // [win_start, n). Concatenating them in that order — with only the
    // small selected segment sorted by index — replaces the old
    // sort+unique over the whole list.
    for (uint32_t g = 0; g < num_queries; ++g) {
        HeadAttentionResult &r = rs[g];
        r.attended.clear();
        r.sparseRaw = sparse_raw;
        r.sparseSurvivors = r.sparseSelected = 0;
        r.usedSparse = sparse_raw > 0;
        for (size_t i = 0; i < sinks; ++i)
            // LS_LINT_ALLOW(alloc): result slot capacity persists across steps
            r.attended.push_back(static_cast<uint32_t>(i));
    }

    if (sparse_raw > 0) {
        // SCF -> score -> top-k over the middle region (core/scf.hh):
        // this module only partitions the context, supplies scratch,
        // and merges the selected ids.
        const size_t kcap = std::min<size_t>(cfg_.topK, sparse_raw);
        ScoredIndex *selected =
            frame.alloc<ScoredIndex>(num_queries * kcap);
        size_t *nsel = frame.alloc<size_t>(num_queries);
        size_t *nsurv = frame.alloc<size_t>(num_queries);
        scfSelect(queries, query_stride, num_queries, cache, sinks,
                  win_start, thresholds_[kv_head], scale, cfg_.topK,
                  frame, selected, kcap, nsel, nsurv);

        for (uint32_t g = 0; g < num_queries; ++g) {
            HeadAttentionResult &r = rs[g];
            const ScoredIndex *sel = selected + g * kcap;
            r.sparseSurvivors = nsurv[g];
            r.sparseSelected = nsel[g];
            const size_t mid = r.attended.size();
            for (size_t j = 0; j < nsel[g]; ++j)
                // LS_LINT_ALLOW(alloc): result slot capacity persists across steps
                r.attended.push_back(sel[j].index);
            // Score order -> index order; only this (<= k) segment
            // needs the sort.
            std::sort(r.attended.begin() + mid, r.attended.end());
        }
    }

    for (uint32_t g = 0; g < num_queries; ++g) {
        HeadAttentionResult &r = rs[g];
        for (size_t i = win_start; i < n; ++i)
            // LS_LINT_ALLOW(alloc): result slot capacity persists across steps
            r.attended.push_back(static_cast<uint32_t>(i));

        // Degenerate guard: nothing survived anywhere (possible only
        // with W = 0, no sinks, and a maximal threshold) — attend the
        // most recent token so the softmax stays well-defined.
        if (r.attended.empty())
            // LS_LINT_ALLOW(alloc): result slot capacity persists across steps
            r.attended.push_back(static_cast<uint32_t>(n - 1));

        // GPU-side combined softmax and SV accumulation (Fig. 2b
        // (5)-(7)). Probabilities are scratch, reclaimed per query so
        // the group's peak does not scale with num_queries; the output
        // vector is the caller's.
        ScratchFrame probs_frame(frame.arena());
        float *probs = probs_frame.alloc<float>(r.attended.size());
        // LS_LINT_ALLOW(alloc): fixed dim; capacity persists after step one
        r.output.resize(dim);
        subsetAttentionInto(queries + g * query_stride, cache,
                            r.attended.data(), r.attended.size(), scale,
                            probs, r.output.data());
    }
}

void
LongSightAttn::recordStats(const HeadAttentionResult &r, FilterStats &fs)
{
    if (r.usedSparse)
        fs.record(r.sparseRaw, r.sparseSurvivors, r.sparseSelected);
}

} // namespace longsight
