#include "sim/serving_engine.hh"

#include <algorithm>
#include <deque>

#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {

namespace {

/**
 * One request's residency state. The same record rides the waiting
 * queues (fresh arrivals with zero progress, preempted requests with
 * their retained prefix) and the active batch.
 */
struct Resident
{
    ServingRequest req;
    uint64_t prefilled = 0;    //!< prompt tokens with resident KV
    uint32_t generated = 0;
    bool needsRestore = false; //!< retained prefix awaits block refill
    Tick firstTokenAt = 0;
    Tick lastTokenAt = 0;
    uint32_t preemptions = 0;
    double maxTbtMs = 0.0;
    uint64_t seq = 0; //!< admission order, for newest-first preemption

    uint64_t context() const { return req.promptLen + generated; }

    /** Blocks are reserved for the full prompt + output up front, the
     *  same currency the PR 6 admission gate used. */
    uint64_t reservedTokens() const
    {
        return req.promptLen + req.outputTokens;
    }

    /** Adopted-prefix tokens (clamped): these need no new blocks for
     *  their full blocks and no prefill compute. */
    uint64_t sharedPrefix() const
    {
        return std::min(req.sharedPrefixTokens, req.promptLen);
    }

    bool runnable() const
    {
        return prefilled >= req.promptLen && !needsRestore;
    }

    /** Prompt resident and output budget spent; a zero-output
     *  (prefill-only) request is done the moment its prompt is. */
    bool finished() const
    {
        return runnable() && generated >= req.outputTokens;
    }
};

} // namespace

std::function<Tick(uint64_t, uint64_t)>
sparsePrefillChunkTime(std::function<Tick(uint64_t, uint64_t)> dense,
                       const SparsePrefillCostParams &params)
{
    LS_ASSERT(params.attentionShare >= 0.0 &&
                  params.attentionShare <= 1.0,
              "attentionShare out of [0,1]: ", params.attentionShare);
    LS_ASSERT(params.attendedFraction >= 0.0, "negative attendedFraction");
    LS_ASSERT(params.estimationOverhead >= 0.0,
              "negative estimationOverhead");
    const double scale = (1.0 - params.attentionShare) +
        params.attentionShare *
            (params.attendedFraction + params.estimationOverhead);
    return [dense = std::move(dense), scale](uint64_t chunk,
                                             uint64_t done) -> Tick {
        const double t = static_cast<double>(dense(chunk, done)) * scale;
        return static_cast<Tick>(t + 0.5);
    };
}

ServingEngineResult::ServingEngineResult(const SloTargets &slo)
    : ttftHist(sloHistogram(slo.ttftMs)), tbtHist(sloHistogram(slo.tbtMs))
{
}

void
ServingEngineResult::finalize(const SloTargets &slo)
{
    ttftP50Ms = ttftHist.quantile(0.5);
    ttftP99Ms = ttftHist.quantile(0.99);
    tbtP50Ms = tbtHist.quantile(0.5);
    tbtP99Ms = tbtHist.quantile(0.99);
    ttftOverflow = ttftHist.count()
        ? static_cast<double>(ttftHist.overflow()) /
            static_cast<double>(ttftHist.count())
        : 0.0;
    tbtOverflow = tbtHist.count()
        ? static_cast<double>(tbtHist.overflow()) /
            static_cast<double>(tbtHist.count())
        : 0.0;

    uint64_t attained_requests = 0;
    uint64_t attained_tokens = 0;
    for (auto &r : requests) {
        r.sloAttained = toSeconds(r.ttft) * 1e3 <= slo.ttftMs &&
            r.maxTbtMs <= slo.tbtMs;
        if (r.sloAttained) {
            ++attained_requests;
            attained_tokens += r.tokens;
        }
    }
    sloAttainment = requests.empty()
        ? 0.0
        : static_cast<double>(attained_requests) /
            static_cast<double>(requests.size());
    if (makespan > 0) {
        throughputTokensPerSec =
            static_cast<double>(totalTokens) / toSeconds(makespan);
        goodputTokensPerSec =
            static_cast<double>(attained_tokens) / toSeconds(makespan);
    }
}

ServingEngine::ServingEngine(const ServingEngineConfig &cfg,
                             const ServingCostModel &cost,
                             BlockLedger *ledger)
    : cfg_(cfg), cost_(cost), ledger_(ledger)
{
    LS_ASSERT(cfg_.maxBatch > 0, "engine must admit at least one request");
    LS_ASSERT(cost_.decodeStepTime, "decode cost callback must be set");
}

ServingEngineResult
ServingEngine::run(std::vector<ServingRequest> trace)
{
    LS_DETERMINISTIC();
    LS_ASSERT(!ledger_ || ledger_->inUse() == 0,
              "ledger carries reservations from a previous run");
    std::sort(trace.begin(), trace.end(),
              [](const ServingRequest &a, const ServingRequest &b) {
                  return a.arrival < b.arrival ||
                      (a.arrival == b.arrival && a.id < b.id);
              });

    ServingEngineResult result(cfg_.slo);
    result.blockBudget = ledger_ ? ledger_->budget() : 0;

    // A request that cannot fit even an empty ledger would hold its
    // queue forever: reject it before the loop, with a reason.
    if (ledger_) {
        std::erase_if(trace, [&](const ServingRequest &r) {
            const uint64_t need = ledger_->privateBlocksFor(
                r.promptLen + r.outputTokens,
                std::min(r.sharedPrefixTokens, r.promptLen));
            if (need <= ledger_->budget())
                return false;
            result.rejected.push_back(
                {r.id, "needs " + std::to_string(need) +
                           " KV blocks; the whole budget is " +
                           std::to_string(ledger_->budget())});
            return true;
        });
    }

    // waiting[1] = Interactive, waiting[0] = Batch; strict priority,
    // FIFO within a class, preempted requests resume from the front.
    std::deque<Resident> waiting[2];
    std::vector<Resident> active; // admission order (erases preserve it)
    size_t next_arrival = 0;
    Tick now = 0;
    uint64_t admit_seq = 0;
    std::vector<uint64_t> contexts;   // decode-step scratch
    std::vector<size_t> decoders;

    const auto waiting_empty = [&] {
        return waiting[0].empty() && waiting[1].empty();
    };
    const auto pull_arrivals = [&] {
        while (next_arrival < trace.size() &&
               trace[next_arrival].arrival <= now) {
            Resident r;
            r.req = trace[next_arrival++];
            // An adopted prefix arrives with resident KV: its tokens
            // skip prefill compute entirely.
            r.prefilled = r.sharedPrefix();
            waiting[r.req.priority == Priority::Interactive ? 1 : 0]
                .push_back(r);
        }
    };

    // Leave: release the request's blocks and record its metrics.
    const auto retire = [&](const Resident &job) {
        if (ledger_)
            ledger_->release(job.reservedTokens(), job.sharedPrefix());
        RequestMetrics m;
        m.id = job.req.id;
        m.priority = job.req.priority;
        m.ttft = job.generated ? job.firstTokenAt - job.req.arrival : 0;
        m.completion = now;
        m.tokens = job.generated;
        m.maxTbtMs = job.maxTbtMs;
        m.preemptions = job.preemptions;
        result.requests.push_back(m);
    };

    // Admit the head of one class if a slot and the block budget
    // allow. Admission itself charges no time: the admitted request's
    // prefill is paid chunk by chunk in subsequent steps. A
    // prefill-only request whose prompt is already resident has
    // nothing to run, so it leaves at admission.
    const auto try_admit = [&](int cls) {
        if (waiting[cls].empty() || active.size() >= cfg_.maxBatch)
            return false;
        Resident &head = waiting[cls].front();
        if (ledger_) {
            if (!ledger_->canReserve(head.reservedTokens(),
                                     head.sharedPrefix())) {
                ++result.gateHolds;
                return false;
            }
            ledger_->reserve(head.reservedTokens(), head.sharedPrefix());
            result.prefixBlocksSaved +=
                ledger_->blocksFor(head.reservedTokens()) -
                ledger_->privateBlocksFor(head.reservedTokens(),
                                          head.sharedPrefix());
            result.peakBlocks =
                std::max(result.peakBlocks, ledger_->inUse());
        }
        head.seq = admit_seq++;
        if (head.finished())
            retire(head);
        else
            active.push_back(head);
        waiting[cls].pop_front();
        result.peakActive = std::max(
            result.peakActive, static_cast<uint32_t>(active.size()));
        return true;
    };

    // Preempt the newest-admitted Batch resident: release its blocks,
    // re-queue it at the front of the Batch class with its prefix
    // (prefilled + generated) retained. It will re-acquire blocks on
    // re-admission and pay a restore transfer, not a re-prefill.
    const auto preempt_one = [&] {
        size_t victim = active.size();
        for (size_t i = 0; i < active.size(); ++i) {
            if (active[i].req.priority != Priority::Batch)
                continue;
            if (victim == active.size() ||
                active[i].seq > active[victim].seq)
                victim = i;
        }
        if (victim == active.size())
            return false;
        Resident job = active[victim];
        active.erase(active.begin() +
                     static_cast<ptrdiff_t>(victim));
        if (ledger_)
            ledger_->release(job.reservedTokens(), job.sharedPrefix());
        // The adopted prefix stays published in the pool; only private
        // progress beyond it needs a restore transfer on resumption.
        job.needsRestore = job.prefilled > job.sharedPrefix() ||
            job.generated > 0;
        ++job.preemptions;
        ++result.preemptions;
        waiting[0].push_front(job);
        return true;
    };

    const auto admissible = [&](const Resident &head) {
        return active.size() < cfg_.maxBatch &&
            (!ledger_ || ledger_->canReserve(head.reservedTokens(),
                                             head.sharedPrefix()));
    };

    while (next_arrival < trace.size() || !waiting_empty() ||
           !active.empty()) {
        pull_arrivals();

        // Idle engine: jump to the next arrival.
        if (active.empty() && waiting_empty()) {
            LS_ASSERT(next_arrival < trace.size(), "engine stuck idle");
            now = std::max(now, trace[next_arrival].arrival);
            pull_arrivals();
            continue;
        }

        // A blocked Interactive head evicts Batch work (newest first)
        // until it fits or no Batch resident remains.
        if (cfg_.preemption && !waiting[1].empty()) {
            while (!admissible(waiting[1].front()) && preempt_one()) {
            }
        }

        // Admission: Interactive strictly first; Batch heads are held
        // while any Interactive request waits (admitting one would
        // consume the blocks the preemption above just freed).
        for (;;) {
            if (try_admit(1))
                continue;
            if (waiting[1].empty() && try_admit(0))
                continue;
            break;
        }
        // Everything admitted left at admission: nothing to step.
        if (active.empty())
            continue;

        // Snapshot this step's decoders BEFORE prefill work: a
        // request whose last chunk lands this step joins the batch
        // next step, mirroring a real iteration boundary.
        decoders.clear();
        contexts.clear();
        for (size_t i = 0; i < active.size(); ++i) {
            if (active[i].runnable()) {
                decoders.push_back(i);
                contexts.push_back(active[i].context());
            }
        }

        // One prefill chunk (or one preempted-prefix restore) rides
        // along with the decode iteration, oldest resident first —
        // the chunked-prefill interleave that bounds decode TBT.
        Tick step = 0;
        bool did_work = false;
        for (auto &job : active) {
            if (job.needsRestore) {
                if (cost_.restoreTime)
                    step += cost_.restoreTime(job.context());
                job.needsRestore = false;
                ++result.restores;
                did_work = true;
                break;
            }
            if (job.prefilled < job.req.promptLen) {
                const uint64_t remaining =
                    job.req.promptLen - job.prefilled;
                const uint64_t chunk = cfg_.prefillChunkTokens
                    ? std::min<uint64_t>(cfg_.prefillChunkTokens,
                                         remaining)
                    : remaining;
                if (cost_.prefillChunkTime)
                    step += cost_.prefillChunkTime(chunk, job.prefilled);
                job.prefilled += chunk;
                ++result.prefillChunks;
                did_work = true;
                break;
            }
        }

        if (!decoders.empty())
            step += cost_.decodeStepTime(contexts);
        else
            LS_ASSERT(did_work, "engine step with nothing to run");
        now += step;

        // Token bookkeeping for this iteration's decoders.
        for (size_t i : decoders) {
            Resident &job = active[i];
            ++job.generated;
            if (job.generated == 1) {
                job.firstTokenAt = now;
                const double ms =
                    toSeconds(now - job.req.arrival) * 1e3;
                result.ttftMs.add(ms);
                result.ttftHist.add(ms);
            } else {
                const double ms = toSeconds(now - job.lastTokenAt) * 1e3;
                result.tbtMs.add(ms);
                result.tbtHist.add(ms);
                job.maxTbtMs = std::max(job.maxTbtMs, ms);
            }
            job.lastTokenAt = now;
            ++result.totalTokens;
        }

        // Per-step leave: spent requests (and prefill-only ones whose
        // last chunk just landed) release their blocks and free their
        // slots before the next admission pass.
        for (auto it = active.begin(); it != active.end();) {
            if (it->finished()) {
                retire(*it);
                it = active.erase(it);
            } else {
                ++it;
            }
        }
    }

    result.makespan = now;
    result.finalize(cfg_.slo);
    return result;
}

} // namespace longsight
