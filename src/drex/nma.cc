#include "drex/nma.hh"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hh"
#include "tensor/linalg.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/scratch_arena.hh"

namespace longsight {

Nma::Nma(const NmaConfig &cfg, const DataLayout &layout,
         DramPackage &package)
    : cfg_(cfg), layout_(layout), package_(package)
{
    LS_ASSERT(cfg.maxTopK > 0 && cfg.maxTopK <= 1024,
              "hardware top-k must be in (0, 1024]");
}

size_t
Nma::filterEpochFunctional(const OffloadSpec &spec,
                           const uint64_t *query_words,
                           size_t words_per_query, uint64_t epoch_begin,
                           uint64_t epoch_end, uint32_t *union_survivors,
                           uint32_t *per_query, size_t stride,
                           size_t *per_query_counts) const
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const auto &signs = spec.cache->filterSignsStorage();
    const uint32_t nq = spec.numQueries;
    for (uint32_t q = 0; q < nq; ++q)
        per_query_counts[q] = 0;
    size_t union_count = 0;

    // One bitmap per query of the group, refilled per block.
    Bitmap128 bitmaps[Pfu::kMaxQueries];

    // Blocks are 128-key aligned in the slice; filter whole blocks and
    // mask tokens outside the requested range.
    const uint64_t block = DataLayout::kKeysPerBlock;
    const uint64_t first_block = epoch_begin / block;
    const uint64_t last_block = (epoch_end + block - 1) / block;
    for (uint64_t b = first_block; b < last_block; ++b) {
        const uint64_t tok_begin = b * block;
        const uint64_t tok_end =
            std::min<uint64_t>(tok_begin + block, spec.cache->size());
        const uint32_t num_keys = static_cast<uint32_t>(tok_end - tok_begin);
        if (num_keys == 0)
            continue;
        Pfu::filterBlock(query_words, words_per_query, nq, signs,
                         tok_begin, num_keys, spec.threshold, bitmaps);
        for (uint32_t i = 0; i < num_keys; ++i) {
            const uint32_t tok = static_cast<uint32_t>(tok_begin) + i;
            if (tok < epoch_begin || tok >= epoch_end)
                continue;
            bool any = false;
            for (uint32_t q = 0; q < nq; ++q) {
                if (bitmaps[q].test(i)) {
                    per_query[q * stride + per_query_counts[q]++] = tok;
                    any = true;
                }
            }
            if (any)
                union_survivors[union_count++] = tok;
        }
    }
    return union_count;
}

uint64_t
Nma::survivorsModelled(const OffloadSpec &spec, uint64_t epoch_tokens) const
{
    return static_cast<uint64_t>(
        std::llround(spec.survivorFraction *
                     static_cast<double>(epoch_tokens)));
}

OffloadResult
Nma::process(Tick start, const OffloadSpec &spec)
{
    LS_DETERMINISTIC();
    LS_ASSERT(spec.sparseEnd >= spec.sparseBegin, "inverted sparse region");
    LS_ASSERT(spec.numQueries >= 1 && spec.numQueries <= Pfu::kMaxQueries,
              "query group size out of PFU range");
    const bool functional = spec.cache != nullptr;
    if (functional) {
        LS_ASSERT(spec.queries && spec.filterQueries,
                  "functional offload needs query matrices");
        LS_ASSERT(spec.sparseEnd <= spec.cache->size(),
                  "sparse region beyond cache");
        LS_ASSERT(!spec.cache->paged(), "functional offload needs a flat "
                  "cache: the NMA indexes rows by token id");
        LS_ASSERT(!spec.quantizedScoring, "functional offload scores "
                  "full-precision keys: quantizedScoring is timing-only");
    }

    OffloadResult r;
    r.startTick = std::max(start, busyUntil_);
    r.regionTokens = spec.sparseEnd - spec.sparseBegin;

    const uint32_t d = layout_.headDim();
    const uint32_t k = std::min(spec.k, cfg_.maxTopK);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));

    // Offload-lifetime scratch: packed query signs, per-query top-k
    // heaps. Everything here is bump-allocated and reclaimed when the
    // frame dies, so repeated offloads are heap-allocation-free in the
    // filter/score/rank stages (the response payload in OffloadResult
    // still uses ordinary vectors).
    ScratchFrame frame(ScratchArena::forThisThread());

    // Pack query sign bits once (done by the DCC when staging the
    // request; cost is negligible next to addrGen).
    const size_t wpq = (d + 63) / 64;
    uint64_t *query_words = nullptr;
    if (functional) {
        query_words = frame.alloc<uint64_t>(spec.numQueries * wpq);
        for (uint32_t q = 0; q < spec.numQueries; ++q)
            packSigns(spec.filterQueries->row(q), d,
                      query_words + q * wpq);
    }

    // Bounded per-query rankers on scratch storage, driven by the same
    // topk_heap primitives as TopK (identical ordering by construction).
    ScoredIndex *heaps = frame.alloc<ScoredIndex>(
        static_cast<size_t>(spec.numQueries) * k);
    size_t *heap_sizes = frame.alloc<size_t>(spec.numQueries);
    for (uint32_t q = 0; q < spec.numQueries; ++q)
        heap_sizes[q] = 0;

    // Epoch span: every bank filters one 128-key block per epoch, so
    // one epoch covers up to banks x 128 tokens of the slice.
    const uint64_t epoch_span =
        static_cast<uint64_t>(layout_.geometry().banksPerChannel) *
        layout_.keysPerGroup();

    Tick t = r.startTick;
    const Tick per_key_dot = static_cast<Tick>(
        2.0 * d * spec.numQueries / cfg_.dotProductFlops * 1e12);

    uint64_t pos = spec.sparseBegin;
    while (pos < spec.sparseEnd) {
        const uint64_t epoch_end =
            std::min(spec.sparseEnd,
                     (pos / epoch_span + 1) * epoch_span);
        const uint64_t epoch_tokens = epoch_end - pos;
        ++r.epochs;

        // Address generation for the epoch's PFU launch.
        t += cfg_.addrGenOverhead;
        r.timing.addrGen += cfg_.addrGenOverhead;

        // In-bank filtering, all banks in parallel.
        const Tick t_filter = Pfu::bitmapGenTime(d, spec.numQueries);
        t += t_filter;
        r.timing.filter += t_filter;

        // Bitmap readout: 16 B per bank per query; banks stream over
        // their channel back to back after one access latency.
        const uint32_t groups = static_cast<uint32_t>(
            (epoch_tokens + layout_.keysPerGroup() - 1) /
            layout_.keysPerGroup());
        const Tick t_bitmap = cfg_.bitmapReadLatency +
            groups * spec.numQueries *
                package_.channel(0).timings().tBurst;
        t += t_bitmap;
        r.timing.bitmapRead += t_bitmap;

        // Survivors of this epoch, in epoch-lifetime scratch (rewound
        // at the end of each loop iteration).
        ScratchFrame epoch_frame(frame.arena());
        uint32_t *survivors = nullptr;
        uint32_t *per_query = nullptr;
        size_t *per_query_counts = nullptr;
        uint64_t survivor_count;
        if (functional) {
            survivors = epoch_frame.alloc<uint32_t>(epoch_tokens);
            per_query = epoch_frame.alloc<uint32_t>(
                static_cast<size_t>(spec.numQueries) * epoch_tokens);
            per_query_counts =
                epoch_frame.alloc<size_t>(spec.numQueries);
            survivor_count = filterEpochFunctional(
                spec, query_words, wpq, pos, epoch_end, survivors,
                per_query, epoch_tokens, per_query_counts);
        } else {
            survivor_count = survivorsModelled(spec, epoch_tokens);
        }
        r.survivors += survivor_count;

        // Scoring: fetch each survivor's full-precision key, striped
        // across the package's channels, and dot-product against the
        // query group. Compute pipelines behind memory; the phase ends
        // when the slower of the two finishes.
        const uint32_t fetch_bytes = spec.quantizedScoring
            ? d + 4 // INT8 payload + per-key scale
            : layout_.keyBytes();
        Tick mem_done = t;
        if (functional) {
            // Union survivors drive memory traffic; each query ranks
            // only the keys its own bitmap kept.
            for (size_t i = 0; i < survivor_count; ++i) {
                const TokenPlace p = layout_.place(
                    spec.user, spec.layer, spec.kvHead, survivors[i]);
                mem_done = package_.readStriped(t, p.bank, p.keyRow,
                                                fetch_bytes);
            }
            for (uint32_t q = 0; q < spec.numQueries; ++q) {
                const uint32_t *kept = per_query + q * epoch_tokens;
                const size_t kept_n = per_query_counts[q];
                ScoredIndex *heap = heaps + static_cast<size_t>(q) * k;
                size_t &hs = heap_sizes[q];
                // Batched survivor scoring (vectorized fused dot+scale;
                // bit-identical to the scalar dot), scores in epoch
                // scratch.
                float *s = epoch_frame.alloc<float>(kept_n);
                batchDotScaleAt(spec.queries->row(q),
                                spec.cache->keysStorage(), kept, kept_n,
                                scale, s);
                for (size_t j = 0; j < kept_n; ++j)
                    hs = topk_heap::push(heap, hs, k,
                                         ScoredIndex{s[j], kept[j]});
            }
        } else {
            // Timing-only: survivors are spread uniformly over the
            // epoch's groups; issue representative striped reads.
            for (uint64_t i = 0; i < survivor_count; ++i) {
                const uint64_t tok = pos +
                    i * epoch_tokens / std::max<uint64_t>(survivor_count, 1);
                const TokenPlace p = layout_.place(
                    spec.user, spec.layer, spec.kvHead, tok);
                mem_done = package_.readStriped(t, p.bank, p.keyRow,
                                                fetch_bytes);
            }
        }
        const Tick compute_done = t + survivor_count * per_key_dot;
        const Tick score_end = std::max(mem_done, compute_done);
        r.timing.score += score_end - t;
        t = score_end;

        // Ranking: pipelined top-k insertion.
        const Tick t_rank = survivor_count * cfg_.topkInsertTime;
        t += t_rank;
        r.timing.rank += t_rank;

        pos = epoch_end;
    }

    // Collect selections (in-place heapsort, then copy into the
    // response payload) and read the corresponding value vectors.
    if (functional) {
        for (uint32_t q = 0; q < spec.numQueries; ++q) {
            ScoredIndex *heap = heaps + static_cast<size_t>(q) * k;
            topk_heap::sortBestFirst(heap, heap_sizes[q]);
            r.topk.emplace_back(heap, heap + heap_sizes[q]);
        }
        for (const auto &list : r.topk)
            for (const auto &e : list)
                r.valueTokens.push_back(e.index);
        std::sort(r.valueTokens.begin(), r.valueTokens.end());
        r.valueTokens.erase(
            std::unique(r.valueTokens.begin(), r.valueTokens.end()),
            r.valueTokens.end());
    }

    const uint64_t value_count = functional
        ? r.valueTokens.size()
        : std::min<uint64_t>(k, r.survivors);
    Tick value_done = t;
    for (uint64_t i = 0; i < value_count; ++i) {
        const uint64_t tok = functional
            ? r.valueTokens[i]
            : spec.sparseBegin +
                i * std::max<uint64_t>(r.regionTokens, 1) /
                    std::max<uint64_t>(value_count, 1);
        const TokenPlace p =
            layout_.place(spec.user, spec.layer, spec.kvHead,
                          std::min<uint64_t>(tok, spec.sparseEnd - 1));
        value_done = package_.readStriped(t, p.bank, p.valueRow,
                                          layout_.keyBytes());
    }
    r.timing.valueRead = value_done - t;
    t = value_done;

    // Score payload (4 B per retained score per query) + values.
    // Quantized Value Objects halve the CXL payload per value (the
    // short-context bottleneck); DRAM-side fetches above saw no gain
    // because scattered survivors pay full burst granularity anyway.
    const uint64_t value_payload = spec.quantizedScoring
        ? layout_.headDim() + 4
        : layout_.keyBytes();
    r.valueBytes = value_count * value_payload +
        4ULL * k * spec.numQueries;

    r.doneTick = t;
    busyUntil_ = t;
    return r;
}

} // namespace longsight
