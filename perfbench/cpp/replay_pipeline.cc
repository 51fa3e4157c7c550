#include "replay_pipeline.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/attention.hh"
#include "tensor/kernels.hh"
#include "tracer.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/units.hh"

namespace perfbench {

using namespace longsight;

void
ReplayCounters::merge(const ReplayCounters &o)
{
    offloads += o.offloads;
    offloadSimUs += o.offloadSimUs;
    writeTokens += o.writeTokens;
    keysScanned += o.keysScanned;
    survivors += o.survivors;
    deviceMismatches += o.deviceMismatches;
}

ReplayPipeline::ReplayPipeline(const PipelineConfig &cfg, DrexDevice &device,
                               uint32_t uid)
    : cfg_(cfg), device_(device), uid_(uid),
      group_(cfg.numQueryHeads / cfg.numKvHeads)
{
    LS_ASSERT(!cfg.trainItq, "the replay does not mirror ITQ training");
    // Construction mirrors DecodePipeline's: the same pool sizing and
    // the same RNG fork order, so every head replays the same stream.
    WorkloadConfig wcfg;
    wcfg.headDim = cfg_.headDim;
    if (cfg_.pagedKv) {
        uint32_t blocks = cfg_.pagedPoolBlocks;
        if (blocks == 0) {
            const uint32_t per_cache =
                (cfg_.pagedMaxContext + cfg_.pagedBlockTokens - 1) /
                cfg_.pagedBlockTokens;
            blocks = per_cache * cfg_.numLayers * cfg_.numKvHeads;
        }
        pool_ = std::make_unique<KvBlockPool>(cfg_.headDim,
                                              cfg_.pagedBlockTokens, blocks);
    }
    Rng root(cfg_.seed);
    for (uint32_t l = 0; l < cfg_.numLayers; ++l) {
        for (uint32_t h = 0; h < cfg_.numKvHeads; ++h) {
            workloads_.emplace_back(wcfg, root.fork());
            caches_.push_back(pool_ ? std::make_unique<KvCache>(*pool_)
                                    : std::make_unique<KvCache>(cfg_.headDim));
        }
    }
    if (cfg_.prefillAttention) {
        for (uint32_t l = 0; l < cfg_.numLayers; ++l) {
            for (uint32_t h = 0; h < cfg_.numKvHeads; ++h) {
                PrefillSparsityConfig pc = cfg_.prefillSparsity;
                if (!cfg_.prefillHeadThresholds.empty())
                    pc.threshold = cfg_.prefillHeadThresholds[h];
                prefillAttn_.push_back(
                    std::make_unique<BlockSparsePrefill>(cfg_.headDim, pc));
                prefillOut_.emplace_back(0, cfg_.headDim);
            }
        }
    }
    queries_.resize(cfg_.numKvHeads);
    filterQueries_.resize(cfg_.numKvHeads);
    headCounters_.resize(cfg_.numKvHeads);
}

size_t
ReplayPipeline::contextLength() const
{
    return caches_.empty() ? 0 : caches_.front()->size();
}

PrefillStats
ReplayPipeline::prefillAttentionStats() const
{
    PrefillStats total;
    for (const auto &head : prefillAttn_)
        total.merge(head->stats());
    return total;
}

void
ReplayPipeline::prefill(size_t n)
{
    Scope span(SpanKind::PipelinePrefill);
    const int64_t parent = span.id();
    ThreadPool::global().parallelFor(0, workloads_.size(), [&](size_t idx) {
        HeadWorkload &wl = workloads_[idx];
        {
            Scope s(SpanKind::WorkloadGenerate, parent);
            wl.generate(n);
        }
        Scope s(SpanKind::KvCacheAppend, parent);
        caches_[idx]->appendAll(wl.keys(), wl.values());
    });
    flushEligibleGroups();
    advancePrefillAttention(false);
}

void
ReplayPipeline::prefillChunk(size_t n)
{
    if (n == 0)
        return;
    if (contextLength() == 0) {
        prefill(n);
        return;
    }
    Scope span(SpanKind::PipelinePrefillChunk);
    const int64_t parent = span.id();
    ThreadPool::global().parallelFor(0, workloads_.size(), [&](size_t idx) {
        HeadWorkload &wl = workloads_[idx];
        for (size_t t = 0; t < n; ++t) {
            {
                Scope s(SpanKind::WorkloadAppend, parent);
                wl.appendToken();
            }
            const size_t pos = wl.contextLength() - 1;
            Scope s(SpanKind::KvCacheAppend, parent);
            caches_[idx]->append(wl.keys().row(pos), wl.values().row(pos));
        }
    });
    flushEligibleGroups();
    advancePrefillAttention(false);
}

void
ReplayPipeline::advancePrefillAttention(bool flush)
{
    if (!cfg_.prefillAttention || prefillFrozen_)
        return;
    const int64_t parent = tracer::current();
    ThreadPool::global().parallelFor(0, workloads_.size(), [&](size_t idx) {
        HeadWorkload &wl = workloads_[idx];
        const size_t n = wl.keys().rows();
        Matrix &out = prefillOut_[idx];
        if (out.rows() < n) {
            const std::vector<float> zero(cfg_.headDim, 0.0f);
            while (out.rows() < n)
                out.appendRow(zero.data());
        }
        Scope s(SpanKind::PrefillAdvance, parent);
        prefillAttn_[idx]->advance(wl.keys(), wl.keys(), wl.values(),
                                   wl.attentionScale(), n, flush, out);
    });
    if (flush)
        prefillFrozen_ = true;
}

void
ReplayPipeline::flushPrefillAttention()
{
    if (!cfg_.prefillAttention || prefillFrozen_)
        return;
    Scope span(SpanKind::PipelineFlushPrefill);
    advancePrefillAttention(true);
}

void
ReplayPipeline::flushEligibleGroups()
{
    const size_t n = contextLength();
    const size_t window = cfg_.hybrid.windowSize;
    const size_t eligible = n > window ? n - window : 0;
    const size_t target =
        eligible / cfg_.flushGranularity * cfg_.flushGranularity;
    if (target <= flushed_)
        return;
    const int64_t parent = tracer::current();
    ThreadPool::global().parallelFor(0, workloads_.size(), [&](size_t idx) {
        const auto l = static_cast<uint32_t>(idx) / cfg_.numKvHeads;
        const auto h = static_cast<uint32_t>(idx) % cfg_.numKvHeads;
        const KvCache &src = cache(l, h);
        const size_t count = target - flushed_;
        Matrix keys(count, cfg_.headDim);
        Matrix values(count, cfg_.headDim);
        for (size_t i = 0; i < count; ++i) {
            keys.setRow(i, src.keyRow(flushed_ + i));
            values.setRow(i, src.valueRow(flushed_ + i));
        }
        Scope s(SpanKind::DrexWrite, parent);
        device_.writeContext(uid_, l, h, keys, values);
    });
    counters_.writeTokens += (target - flushed_) * workloads_.size();
    flushed_ = target;
}

void
ReplayPipeline::appendOneToken(int64_t parent)
{
    ThreadPool::global().parallelFor(0, workloads_.size(), [&](size_t idx) {
        HeadWorkload &wl = workloads_[idx];
        {
            Scope s(SpanKind::WorkloadAppend, parent);
            wl.appendToken();
        }
        const size_t pos = wl.contextLength() - 1;
        Scope s(SpanKind::KvCacheAppend, parent);
        caches_[idx]->append(wl.keys().row(pos), wl.values().row(pos));
    });
}

PipelineStepResult
ReplayPipeline::decodeStep()
{
    // The prompt ends where decode begins (as in decodeStepBatch).
    flushPrefillAttention();
    Scope span(SpanKind::PipelineDecodeStep);
    PipelineStepResult result;

    // Phases 1-2: append one token everywhere, bulk flush.
    appendOneToken(span.id());
    const size_t before = flushed_;
    flushEligibleGroups();
    result.tokensFlushed =
        (flushed_ - before) * cfg_.numLayers * cfg_.numKvHeads;

    std::vector<AttentionResponse> responses;
    for (uint32_t l = 0; l < cfg_.numLayers; ++l) {
        // Phase 3: draw queries, offload. Phase 4: combine + verify.
        const bool offload = offloadLayer(l, result, responses);
        for (auto &c : headCounters_)
            c = ReplayCounters{};
        ThreadPool::global().parallelForEach(
            0, cfg_.numKvHeads, [&](size_t hi) {
                const auto h = static_cast<uint32_t>(hi);
                combineHead(l, h, offload, responses, span.id(),
                            headCounters_[h]);
            });
        for (const auto &c : headCounters_)
            counters_.merge(c);
        for (size_t lane = 0; lane < laneMass_.size(); ++lane) {
            result.minRetainedMass =
                std::min(result.minRetainedMass, laneMass_[lane]);
            if (!laneMatched_[lane])
                result.deviceMatchedSoftware = false;
        }
    }
    return result;
}

void
ReplayPipeline::decodeStepBatch(const std::vector<ReplayPipeline *> &batch,
                                std::vector<PipelineStepResult> &results)
{
    results.clear();
    for (ReplayPipeline *p : batch)
        results.push_back(p->decodeStep());
}

bool
ReplayPipeline::offloadLayer(uint32_t l, PipelineStepResult &result,
                             std::vector<AttentionResponse> &responses)
{
    const size_t n = contextLength();
    const size_t sinks = std::min<size_t>(cfg_.hybrid.sinkTokens, n);
    const bool offload = flushed_ > sinks;
    const int64_t parent = tracer::current();
    ThreadPool::global().parallelForEach(0, cfg_.numKvHeads, [&](size_t hi) {
        const auto h = static_cast<uint32_t>(hi);
        HeadWorkload &wl = workloads_[l * cfg_.numKvHeads + h];
        const KvCache &kv = cache(l, h);
        queries_[h].resize(group_, cfg_.headDim);
        filterQueries_[h].resize(group_, cfg_.headDim);
        Scope s(SpanKind::WorkloadDraw, parent);
        for (uint32_t g = 0; g < group_; ++g) {
            const auto q = wl.drawQuery();
            queries_[h].setRow(g, q.data());
            kv.toFilterSpace(q.data(), filterQueries_[h].row(g));
        }
    });

    responses.clear();
    if (offload) {
        AttentionRequest req;
        req.uid = uid_;
        req.layer = l;
        for (uint32_t h = 0; h < cfg_.numKvHeads; ++h) {
            OffloadSpec spec;
            spec.user = uid_;
            spec.layer = l;
            spec.kvHead = h;
            spec.sparseBegin = sinks;
            spec.sparseEnd = flushed_;
            spec.numQueries = group_;
            spec.k = cfg_.hybrid.topK;
            spec.threshold = cfg_.hybrid.defaultThreshold;
            spec.cache = &device_.context(uid_, l, h);
            spec.queries = &queries_[h];
            spec.filterQueries = &filterQueries_[h];
            req.headOffloads.push_back(spec);
        }
        {
            Scope s(SpanKind::DrexOffload);
            device_.submit(std::move(req));
            responses = device_.processAll();
        }
        ++result.offloadsIssued;
        for (const AttentionResponse &r : responses) {
            Tick start = std::numeric_limits<Tick>::max();
            for (const OffloadResult &hr : r.headResults)
                start = std::min(start, hr.startTick);
            counters_.offloadSimUs += toMicroseconds(r.readyTick - start);
            ++counters_.offloads;
        }
    }
    const size_t lanes = static_cast<size_t>(cfg_.numKvHeads) * group_;
    laneMass_.assign(lanes, 1.0);
    laneMatched_.assign(lanes, 1);
    return offload;
}

void
ReplayPipeline::combineHead(uint32_t l, uint32_t h, bool offload,
                            const std::vector<AttentionResponse> &responses,
                            int64_t parent, ReplayCounters &counters)
{
    const size_t n = contextLength();
    const size_t sinks = std::min<size_t>(cfg_.hybrid.sinkTokens, n);
    const float scale = 1.0f / std::sqrt(static_cast<float>(cfg_.headDim));
    const KvCache &kv = cache(l, h);
    const Matrix &queries = queries_[h];

    // Verification A precompute: the software filter -> score -> rank
    // selection for the whole query group in one span-aware scan.
    std::vector<ScoredIndex> expect;
    std::vector<size_t> expect_sizes(group_);
    size_t kcap = 0;
    if (offload) {
        Scope s(SpanKind::KernelsScoreSelect, parent);
        const SignMatrix &signs = kv.filterSignsStorage();
        const size_t wpr = signs.wordsPerRow();
        std::vector<uint64_t> qw(group_ * wpr);
        for (uint32_t g = 0; g < group_; ++g)
            packSigns(filterQueries_[h].row(g), cfg_.headDim,
                      qw.data() + g * wpr);
        kcap = std::min<size_t>(cfg_.hybrid.topK, flushed_ - sinks);
        expect.resize(group_ * kcap);
        std::vector<ScanSpan> spans(kv.maxSpans(sinks, flushed_));
        const size_t nspans = kv.collectSpans(sinks, flushed_, spans.data());
        std::vector<size_t> span_surv(nspans);
        batchScoreSelectMultiSpans(
            qw.data(), group_, signs, spans.data(), nspans,
            cfg_.hybrid.defaultThreshold, queries.row(0), queries.cols(),
            kv.keysStorage(), scale, cfg_.hybrid.topK, expect.data(), kcap,
            expect_sizes.data(), nullptr, span_surv.data());
        for (size_t si = 0; si < nspans; ++si) {
            counters.keysScanned += uint64_t{group_} * spans[si].count;
            counters.survivors += span_surv[si];
            if (kv.paged())
                kv.recordFilterScan(spans[si],
                                    uint64_t{group_} * spans[si].count,
                                    span_surv[si]);
        }
    }

    const size_t staged_begin = std::max(flushed_, sinks);
    std::vector<uint32_t> attended;
    std::vector<uint32_t> hw_topk;
    std::vector<float> probs;
    std::vector<float> combined(cfg_.headDim);
    std::vector<float> dense_probs(n);
    std::vector<float> dense_out(cfg_.headDim);
    for (uint32_t g = 0; g < group_; ++g) {
        const size_t lane = static_cast<size_t>(h) * group_ + g;
        attended.clear();
        for (size_t i = 0; i < sinks; ++i)
            attended.push_back(static_cast<uint32_t>(i));
        hw_topk.clear();
        if (offload) {
            for (const ScoredIndex &si : responses[0].headResults[h].topk[g])
                hw_topk.push_back(si.index);
            std::sort(hw_topk.begin(), hw_topk.end());
            attended.insert(attended.end(), hw_topk.begin(), hw_topk.end());
        }
        for (size_t i = staged_begin; i < n; ++i)
            attended.push_back(static_cast<uint32_t>(i));

        const float *q = queries.row(g);
        probs.resize(attended.size());
        {
            Scope s(SpanKind::AttentionCombine, parent);
            subsetAttentionInto(q, kv, attended.data(), attended.size(),
                                scale, probs.data(), combined.data());
        }

        if (offload) {
            const ScoredIndex *sel = expect.data() + g * kcap;
            const size_t nsel = expect_sizes[g];
            bool matched = nsel == hw_topk.size();
            if (matched) {
                std::vector<uint32_t> sw(nsel);
                for (size_t i = 0; i < nsel; ++i)
                    sw[i] = sel[i].index;
                std::sort(sw.begin(), sw.end());
                matched = std::equal(sw.begin(), sw.end(), hw_topk.begin());
            }
            if (!matched) {
                laneMatched_[lane] = 0;
                ++counters.deviceMismatches;
            }
        }

        Scope s(SpanKind::AttentionDenseVerify, parent);
        denseAttentionInto(q, kv, scale, dense_probs.data(),
                           dense_out.data());
        double mass = 0.0;
        for (uint32_t idx : attended)
            mass += dense_probs[idx];
        laneMass_[lane] = mass;
    }
}

} // namespace perfbench
