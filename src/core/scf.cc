#include "core/scf.hh"

#include "core/kv_cache.hh"
#include "tensor/kernels.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/scratch_arena.hh"

namespace longsight {

bool
scfPasses(const SignBits &query, const SignBits &key, int threshold)
{
    return query.concordance(key) >= threshold;
}

std::vector<uint32_t>
scfFilter(const SignBits &query, const std::vector<SignBits> &keys,
          int threshold, uint32_t base_index)
{
    std::vector<uint32_t> survivors;
    for (uint32_t i = 0; i < keys.size(); ++i) {
        if (scfPasses(query, keys[i], threshold))
            survivors.push_back(base_index + i);
    }
    return survivors;
}

std::vector<uint32_t>
scfFilter(const SignBits &query, const SignMatrix &keys, int threshold,
          uint32_t base_index)
{
    if (keys.rows() == 0)
        return {};
    LS_ASSERT(query.dim() == keys.dim(), "scfFilter dim mismatch: ",
              query.dim(), " vs ", keys.dim());
    // One identity-shaped span whose logical base is base_index: the
    // scan writes base_index + row directly.
    const ScanSpan all{0, keys.rows(), base_index};
    std::vector<uint32_t> survivors(keys.rows());
    size_t count = 0;
    batchScanMultiSpans(query.words().data(), 1, keys, &all, 1, threshold,
                        survivors.data(), survivors.size(), &count);
    survivors.resize(count);
    return survivors;
}

std::vector<uint32_t>
scfFilterRows(const float *query, const Matrix &keys, size_t begin,
              size_t end, int threshold)
{
    LS_ASSERT(end <= keys.rows() && begin <= end,
              "scfFilterRows range [", begin, ",", end, ") out of ",
              keys.rows());
    const SignBits q(query, keys.cols());
    std::vector<uint32_t> survivors;
    for (size_t i = begin; i < end; ++i) {
        const SignBits k(keys.row(i), keys.cols());
        if (scfPasses(q, k, threshold))
            survivors.push_back(static_cast<uint32_t>(i));
    }
    return survivors;
}

void
scfSelect(const float *queries, size_t query_stride, uint32_t num_queries,
          const KvCache &cache, size_t lo, size_t hi, int threshold,
          float scale, size_t k, ScratchFrame &frame,
          ScoredIndex *selected, size_t kcap, size_t *num_selected,
          size_t *survivors)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t dim = cache.headDim();
    const size_t wpr = (dim + 63) / 64;
    const uint32_t nq = num_queries;

    // Filter-space projections and packed signs for the whole group,
    // in scratch (a SignBits would heap-allocate).
    float *qf = frame.alloc<float>(dim);
    uint64_t *q_words = frame.alloc<uint64_t>(nq * wpr);
    for (uint32_t g = 0; g < nq; ++g) {
        cache.toFilterSpace(queries + g * query_stride, qf);
        packSigns(qf, dim, q_words + g * wpr);
    }

    // The filter region as physical spans (a paged cache's block
    // table; the single identity span when flat) — both layouts route
    // through the span driver, so they run the same code and stay
    // element-identical.
    ScanSpan *spans = frame.alloc<ScanSpan>(cache.maxSpans(lo, hi));
    const size_t nspans = cache.collectSpans(lo, hi, spans);
    size_t *span_surv = frame.alloc<size_t>(nspans);

    // Fused SCF → score → select for the whole group: the sign rows
    // and survivor keys are read once, each survivor scored once for
    // the whole group, and each query's selector offered its own.
    batchScoreSelectMultiSpans(q_words, nq, cache.filterSignsStorage(),
                               spans, nspans, threshold, queries,
                               query_stride, cache.keysStorage(), scale, k,
                               selected, kcap, num_selected, survivors,
                               span_surv);

    // Credit the pass to the pool's SCF residency counters: blocks
    // whose keys keep surviving the filter earn the HBM window.
    if (cache.paged())
        for (size_t si = 0; si < nspans; ++si)
            cache.recordFilterScan(spans[si],
                                   uint64_t{nq} * spans[si].count,
                                   span_surv[si]);
}

} // namespace longsight
