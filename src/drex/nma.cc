#include "drex/nma.hh"

#include <algorithm>
#include <bit>
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
                           uint32_t *slots, size_t stride,
                           size_t *slot_counts) const
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const auto &signs = spec.cache->filterSignsStorage();
    const uint32_t nq = spec.numQueries;
    for (uint32_t q = 0; q < nq; ++q)
        slot_counts[q] = 0;
    size_t union_count = 0;

    // One bitmap per query of the group, refilled per block.
    Bitmap128 bitmaps[Pfu::kMaxQueries];
    uint64_t words[Pfu::kMaxQueries];

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
        // Walk each 64-key word: OR the group's words into the union
        // and visit its set bits in ascending order. Bits past num_keys
        // are already clear.
        for (size_t w = 0; w < 2; ++w) {
            const uint64_t base = tok_begin + 64 * w;
            const uint64_t lo = std::max(epoch_begin, base);
            const uint64_t hi = std::min(epoch_end, base + 64);
            if (lo >= hi)
                continue;
            const uint64_t upto =
                hi - base == 64 ? ~uint64_t{0}
                                : (uint64_t{1} << (hi - base)) - 1;
            const uint64_t range = upto & ~((uint64_t{1} << (lo - base)) - 1);
            uint64_t any = 0;
            for (uint32_t q = 0; q < nq; ++q) {
                words[q] = bitmaps[q].word(w) & range;
                any |= words[q];
            }
            for (; any != 0; any &= any - 1) {
                const int bit = std::countr_zero(any);
                // Store the slot for every query, keep it where the
                // query's own bit is set (branch-free; the slot past a
                // query's live list stays within its row).
                for (uint32_t q = 0; q < nq; ++q) {
                    slots[q * stride + slot_counts[q]] =
                        static_cast<uint32_t>(union_count);
                    slot_counts[q] += (words[q] >> bit) & 1;
                }
                union_survivors[union_count++] =
                    static_cast<uint32_t>(base + static_cast<uint64_t>(bit));
            }
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
    // selector buffers. Everything here is bump-allocated and reclaimed
    // when the frame dies, so repeated offloads are heap-allocation-free
    // in the filter/score/rank stages (the response payload in
    // OffloadResult still uses ordinary vectors).
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

    // Bounded per-query rankers on scratch storage: the same selector
    // as TopK (identical ordering by construction).
    TopKSelector rankers[Pfu::kMaxQueries];
    if (functional) {
        LS_ASSERT(k > 0, "functional offload needs k > 0");
        RankEntry *store = frame.alloc<RankEntry>(
            spec.numQueries * TopKSelector::storageFor(k));
        for (uint32_t q = 0; q < spec.numQueries; ++q)
            rankers[q] =
                TopKSelector(store + q * TopKSelector::storageFor(k), k);
    }

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
        uint32_t *slots = nullptr;
        size_t *slot_counts = nullptr;
        uint64_t survivor_count;
        if (functional) {
            survivors = epoch_frame.alloc<uint32_t>(epoch_tokens);
            slots = epoch_frame.alloc<uint32_t>(
                static_cast<size_t>(spec.numQueries) * epoch_tokens);
            slot_counts = epoch_frame.alloc<size_t>(spec.numQueries);
            survivor_count = filterEpochFunctional(
                spec, query_words, wpq, pos, epoch_end, survivors, slots,
                epoch_tokens, slot_counts);
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
            // Union survivors drive memory traffic and are each scored
            // once against the whole group (what per_key_dot charges);
            // each query ranks only the keys its own bitmap kept.
            for (size_t i = 0; i < survivor_count; ++i) {
                const TokenPlace p = layout_.place(
                    spec.user, spec.layer, spec.kvHead, survivors[i]);
                mem_done = package_.readStriped(t, p.bank, p.keyRow,
                                                fetch_bytes);
            }
            float *s = epoch_frame.alloc<float>(
                static_cast<size_t>(spec.numQueries) * survivor_count);
            batchDotScaleMulti(spec.queries->row(0), spec.queries->cols(),
                               spec.numQueries, spec.cache->keysStorage(),
                               survivors, 0, survivor_count, scale, s,
                               survivor_count);
            for (uint32_t q = 0; q < spec.numQueries; ++q) {
                const uint32_t *own = slots + q * epoch_tokens;
                const float *qs = s + q * survivor_count;
                for (size_t j = 0; j < slot_counts[q]; ++j)
                    rankers[q].push(qs[own[j]], survivors[own[j]]);
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

    // Collect selections (sorted best-first into the response
    // payload) and read the corresponding value vectors.
    if (functional) {
        r.topk.resize(spec.numQueries);
        for (uint32_t q = 0; q < spec.numQueries; ++q) {
            r.topk[q].resize(rankers[q].size());
            rankers[q].finish(r.topk[q].data());
        }
        // The union of the selections in ascending token order: mark
        // each selected token in a scratch bitmap over the region, then
        // walk its words (no sort of the k x numQueries entries).
        const size_t words = (r.regionTokens + 63) / 64;
        uint64_t *marks = frame.alloc<uint64_t>(words);
        std::fill_n(marks, words, uint64_t{0});
        size_t selected = 0;
        for (const auto &list : r.topk) {
            selected += list.size();
            for (const auto &e : list) {
                const uint64_t off = e.index - spec.sparseBegin;
                marks[off >> 6] |= uint64_t{1} << (off & 63);
            }
        }
        r.valueTokens.reserve(selected);
        for (size_t w = 0; w < words; ++w)
            for (uint64_t bits = marks[w]; bits != 0; bits &= bits - 1)
                r.valueTokens.push_back(static_cast<uint32_t>(
                    spec.sparseBegin + 64 * w +
                    static_cast<uint64_t>(std::countr_zero(bits))));
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
