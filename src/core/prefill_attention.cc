#include "core/prefill_attention.hh"

#include <algorithm>
#include <cmath>

#include "core/attention.hh"
#include "tensor/kernels.hh"
#include "tensor/softmax.hh"
#include "tensor/topk_heap.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/scratch_arena.hh"
#include "util/thread_pool.hh"

namespace longsight {

void
PrefillStats::merge(const PrefillStats &o)
{
    qBlocks += o.qBlocks;
    candidateBlocks += o.candidateBlocks;
    keptBlocks += o.keptBlocks;
    forcedBlocks += o.forcedBlocks;
    attendedTokens += o.attendedTokens;
    denseTokens += o.denseTokens;
}

BlockSparsePrefill::BlockSparsePrefill(size_t head_dim,
                                       const PrefillSparsityConfig &cfg)
    : headDim_(head_dim), cfg_(cfg), blockSigs_(head_dim)
{
    LS_ASSERT(headDim_ > 0, "BlockSparsePrefill needs a head dimension");
    LS_ASSERT(cfg_.blockTokens > 0,
              "BlockSparsePrefill blockTokens must be positive");
    LS_ASSERT(cfg_.keepFraction >= 0.0 && cfg_.keepFraction <= 1.0,
              "BlockSparsePrefill keepFraction out of [0,1]: ",
              cfg_.keepFraction);
}

size_t
BlockSparsePrefill::windowStartBlock(size_t q_begin) const
{
    // The window is anchored at the BLOCK's first query so every query
    // in the block sees at least windowTokens dense local context;
    // Dense mode forces everything from block 0.
    if (cfg_.mode == PrefillSparsityMode::Dense)
        return 0;
    if (q_begin < cfg_.windowTokens)
        return 0;
    return (q_begin - cfg_.windowTokens) / cfg_.blockTokens;
}

void
BlockSparsePrefill::extendSignatures(const Matrix &keys, size_t full_blocks)
{
    if (sigBlocks_ >= full_blocks ||
        cfg_.mode == PrefillSparsityMode::Dense)
        return;
    const size_t B = cfg_.blockTokens;
    const size_t wpr = blockSigs_.wordsPerRow();
    ScratchFrame frame(ScratchArena::forThisThread());
    uint64_t *packed = frame.alloc<uint64_t>(B * wpr);
    // LS_LINT_ALLOW(alloc): once per K-block, off the per-token path
    blockSigs_.resizeRows(full_blocks);
    for (size_t b = sigBlocks_; b < full_blocks; ++b) {
        for (size_t r = 0; r < B; ++r)
            packSigns(keys.row(b * B + r), headDim_, packed + r * wpr);
        blockSignReduce(packed, wpr, B,
                        blockSigs_.data() + b * wpr);
    }
    sigBlocks_ = full_blocks;
}

void
BlockSparsePrefill::estimateTasks(const Matrix &queries)
{
    const size_t B = cfg_.blockTokens;
    const size_t wpr = blockSigs_.wordsPerRow();
    const size_t sink_blocks = (cfg_.sinkTokens + B - 1) / B;
    keptBuf_.clear();
    ScratchArena &arena = ScratchArena::forThisThread();
    for (size_t t0 = 0; t0 < tasks_.size(); t0 += kMaxScanQueries) {
        const size_t nq = std::min(kMaxScanQueries, tasks_.size() - t0);
        ScratchFrame frame(arena);
        uint64_t *sign_rows = frame.alloc<uint64_t>(B * wpr);
        uint64_t *qsigs = frame.alloc<uint64_t>(nq * wpr);
        size_t max_end = sink_blocks;
        for (size_t qi = 0; qi < nq; ++qi) {
            QBlockTask &t = tasks_[t0 + qi];
            const size_t rows = t.qEnd - t.qBegin;
            for (size_t r = 0; r < rows; ++r)
                packSigns(queries.row(t.qBegin + r), headDim_,
                          sign_rows + r * wpr);
            blockSignReduce(sign_rows, wpr, rows, qsigs + qi * wpr);
            t.candidates = t.windowStart > sink_blocks
                ? static_cast<uint32_t>(t.windowStart - sink_blocks)
                : 0;
            max_end = std::max<size_t>(max_end,
                                       sink_blocks + t.candidates);
        }
        if (max_end == sink_blocks) {
            // No task in this group has estimatable blocks.
            for (size_t qi = 0; qi < nq; ++qi) {
                tasks_[t0 + qi].keptOffset =
                    static_cast<uint32_t>(keptBuf_.size());
                tasks_[t0 + qi].keptCount = 0;
            }
            continue;
        }
        const size_t max_cand = max_end - sink_blocks;
        if (cfg_.mode == PrefillSparsityMode::Threshold) {
            // One streaming pass over the K-block signatures serves
            // the whole Q-block group (kMaxScanQueries packing); each
            // task then truncates the shared ascending survivor list
            // at its own causal window start.
            uint32_t *surv = frame.alloc<uint32_t>(nq * max_cand);
            size_t counts[kMaxScanQueries];
            const ScanSpan cand{sink_blocks, max_cand, sink_blocks};
            batchScanMultiSpans(qsigs, nq, blockSigs_, &cand, 1,
                                cfg_.threshold, surv, max_cand, counts);
            for (size_t qi = 0; qi < nq; ++qi) {
                QBlockTask &t = tasks_[t0 + qi];
                t.keptOffset = static_cast<uint32_t>(keptBuf_.size());
                const uint32_t *s = surv + qi * max_cand;
                const size_t own_end = sink_blocks + t.candidates;
                size_t kept = 0;
                for (size_t j = 0; j < counts[qi] && s[j] < own_end; ++j)
                    ++kept;
                keptBuf_.insert(keptBuf_.end(), s, s + kept);
                t.keptCount = static_cast<uint32_t>(kept);
            }
        } else {
            // TopFraction: concordance-score every candidate, keep the
            // best ceil(f * candidates) (ties -> lower block index),
            // then restore ascending block order for assembly.
            int32_t *conc = frame.alloc<int32_t>(max_cand);
            ScoredIndex *heap = frame.alloc<ScoredIndex>(max_cand);
            for (size_t qi = 0; qi < nq; ++qi) {
                QBlockTask &t = tasks_[t0 + qi];
                t.keptOffset = static_cast<uint32_t>(keptBuf_.size());
                t.keptCount = 0;
                if (t.candidates == 0)
                    continue;
                batchConcordance(qsigs + qi * wpr, blockSigs_,
                                 sink_blocks,
                                 sink_blocks + t.candidates, conc);
                const size_t keep = static_cast<size_t>(std::ceil(
                    cfg_.keepFraction *
                    static_cast<double>(t.candidates)));
                if (keep == 0)
                    continue;
                size_t hs = 0;
                for (size_t j = 0; j < t.candidates; ++j)
                    hs = topk_heap::push(
                        heap, hs, keep,
                        ScoredIndex{static_cast<float>(conc[j]),
                                    static_cast<uint32_t>(
                                        sink_blocks + j)});
                topk_heap::sortBestFirst(heap, hs);
                const size_t at = keptBuf_.size();
                for (size_t j = 0; j < hs; ++j)
                    keptBuf_.push_back(heap[j].index);
                std::sort(keptBuf_.begin() +
                              static_cast<ptrdiff_t>(at),
                          keptBuf_.end());
                t.keptCount = static_cast<uint32_t>(hs);
            }
        }
    }
}

void
BlockSparsePrefill::runTask(const QBlockTask &t, const Matrix &queries,
                            const Matrix &keys, const Matrix &values,
                            float scale, Matrix &out,
                            PrefillStats &stats) const
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t B = cfg_.blockTokens;
    const size_t sink_blocks =
        std::min<size_t>((cfg_.sinkTokens + B - 1) / B, t.windowStart);
    ScratchFrame frame(ScratchArena::forThisThread());

    // Assemble the block's attended token list, ascending and
    // duplicate-free: sinks, knob survivors (all < windowStart), then
    // the forced window + frontier region. Every query in the block
    // shares the list; query i attends to its prefix of tokens <= i.
    uint32_t *tokens = frame.alloc<uint32_t>(t.qEnd);
    size_t ntok = 0;
    auto add_block = [&](size_t kb) {
        const size_t tb = kb * B;
        const size_t te = std::min(tb + B, static_cast<size_t>(t.qEnd));
        for (size_t tok = tb; tok < te; ++tok)
            tokens[ntok++] = static_cast<uint32_t>(tok);
    };
    for (size_t kb = 0; kb < sink_blocks; ++kb)
        add_block(kb);
    for (size_t j = 0; j < t.keptCount; ++j)
        add_block(keptBuf_[t.keptOffset + j]);
    for (size_t kb = std::max<size_t>(t.windowStart, sink_blocks);
         kb <= t.block; ++kb)
        add_block(kb);

    float *probs =
        cfg_.estimateOnly ? nullptr : frame.alloc<float>(ntok);
    size_t cut = 0;
    for (size_t i = t.qBegin; i < t.qEnd; ++i) {
        while (cut < ntok && tokens[cut] <= i)
            ++cut;
        if (!cfg_.estimateOnly)
            subsetAttentionInto(queries.row(i), keys, values, tokens,
                                cut, scale, probs, out.row(i));
        stats.attendedTokens += cut;
        stats.denseTokens += i + 1;
    }
}

void
BlockSparsePrefill::advance(const Matrix &queries, const Matrix &keys,
                            const Matrix &values, float scale, size_t upTo,
                            bool flush, Matrix &out)
{
    const size_t B = cfg_.blockTokens;
    LS_ASSERT(upTo <= queries.rows() && upTo <= keys.rows() &&
                  upTo <= values.rows(),
              "prefill advance upTo ", upTo, " beyond stream");
    LS_ASSERT(queries.cols() == headDim_ && keys.cols() == headDim_ &&
                  values.cols() == headDim_,
              "prefill advance head-dim mismatch");
    LS_ASSERT(upTo >= processed_, "prefill stream moved backwards: ",
              upTo, " < ", processed_);

    extendSignatures(keys, upTo / B);

    const size_t end = flush ? upTo : (upTo / B) * B;
    if (end <= processed_)
        return;
    LS_ASSERT(cfg_.estimateOnly ||
                  (out.rows() >= end && out.cols() == headDim_),
              "prefill output matrix too small: ", out.rows(), "x",
              out.cols(), " for ", end, " tokens");

    tasks_.clear();
    for (size_t qs = processed_; qs < end;) {
        const size_t qb = qs / B;
        const size_t qe = std::min((qb + 1) * B, end);
        QBlockTask t;
        t.block = static_cast<uint32_t>(qb);
        t.qBegin = static_cast<uint32_t>(qs);
        t.qEnd = static_cast<uint32_t>(qe);
        t.windowStart = static_cast<uint32_t>(windowStartBlock(qs));
        tasks_.push_back(t);
        qs = qe;
    }

    if (cfg_.mode != PrefillSparsityMode::Dense)
        estimateTasks(queries);

    // Attention inside kept + forced blocks, parallel over Q-blocks:
    // lanes write disjoint out rows and disjoint stats slots, folded
    // serially below — bit-identical at any thread count.
    taskStats_.assign(tasks_.size(), PrefillStats{});
    ThreadPool::global().parallelForEach(
        0, tasks_.size(), [&](size_t ti) {
            // Annotated directly: thread-pool dispatch is opaque to
            // the call-graph walk, so the body is its own root.
            LS_PARALLEL_BODY();
            LS_HOT_PATH();
            LS_DETERMINISTIC();
            LS_NO_LOCK();
            runTask(tasks_[ti], queries, keys, values, scale, out,
                    taskStats_[ti]);
        });

    const size_t sink_blocks = (cfg_.sinkTokens + B - 1) / B;
    for (size_t ti = 0; ti < tasks_.size(); ++ti) {
        const QBlockTask &t = tasks_[ti];
        PrefillStats &s = taskStats_[ti];
        s.qBlocks = 1;
        s.candidateBlocks = t.candidates;
        s.keptBlocks = t.keptCount;
        const size_t forced_sinks =
            std::min<size_t>(sink_blocks, t.windowStart);
        s.forcedBlocks = forced_sinks + (t.block - t.windowStart + 1);
        stats_.merge(s);
        if (cfg_.recordDecisions) {
            PrefillBlockDecision d;
            d.qBlock = t.block;
            d.qBegin = t.qBegin;
            d.qEnd = t.qEnd;
            d.sinkBlocks = static_cast<uint32_t>(forced_sinks);
            d.windowStart = t.windowStart;
            d.candidates = t.candidates;
            d.keptBlocks.assign(
                keptBuf_.begin() + t.keptOffset,
                keptBuf_.begin() + t.keptOffset + t.keptCount);
            decisions_.push_back(std::move(d));
        }
    }
    processed_ = end;
}

void
densePrefillReference(const Matrix &queries, const Matrix &keys,
                      const Matrix &values, float scale, size_t upTo,
                      Matrix &out)
{
    LS_ASSERT(upTo <= queries.rows() && upTo <= keys.rows() &&
                  upTo <= values.rows(),
              "densePrefillReference upTo beyond stream");
    LS_ASSERT(out.rows() >= upTo && out.cols() == values.cols(),
              "densePrefillReference output too small");
    ThreadPool::global().parallelForEach(0, upTo, [&](size_t i) {
        LS_PARALLEL_BODY();
        LS_HOT_PATH();
        LS_DETERMINISTIC();
        LS_NO_LOCK();
        ScratchFrame frame(ScratchArena::forThisThread());
        float *probs = frame.alloc<float>(i + 1);
        batchDotScaleRange(queries.row(i), keys, 0, i + 1, scale, probs);
        softmaxInPlace(probs, i + 1);
        // Ascending accumulation, the exact weightedValueSumInto
        // order, so the subset path at knob = Dense matches bit for
        // bit.
        float *o = out.row(i);
        const size_t hd = values.cols();
        for (size_t d = 0; d < hd; ++d)
            o[d] = 0.0f;
        for (size_t j = 0; j <= i; ++j) {
            const float p = probs[j];
            const float *v = values.row(j);
            for (size_t d = 0; d < hd; ++d)
                o[d] += p * v[d];
        }
    });
}

} // namespace longsight
