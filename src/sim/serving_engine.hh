/**
 * @file
 * SLO-aware continuous-batching serving engine: the repo's one
 * arrival-to-completion serving loop, which every bench, example and
 * test that serves arrivals over time drives. It owns four policies:
 *
 *  1. *Admission control* against a KV block budget (a BlockLedger):
 *     a request joins only when prompt + output budget fit the free
 *     pool, so peak memory is bounded by capacity, not by a guess at
 *     a request cap. A request that cannot fit even an empty ledger
 *     is rejected up front with a reason, never aborted on.
 *
 *  2. *Continuous batching with per-step join/leave*: requests join
 *     the running batch the step after their prefill completes and
 *     leave the step their output budget is spent; slots refill
 *     without draining the batch.
 *
 *  3. *Chunked prefill interleaved with decode* (the Sarathi-style
 *     schedule the paper's §2.1/§3 batched-inference discussion
 *     assumes around the attention kernel): a long prompt is split
 *     into fixed-token chunks and at most one chunk rides along with
 *     each decode iteration, so running streams' time-between-tokens
 *     stays bounded by (decode + one chunk) while a 32K prompt
 *     prefills, instead of stalling for the whole prompt.
 *
 *  4. *Priority classes with preemption*: when an Interactive request
 *     is blocked on the block budget, the engine preempts
 *     newest-first Batch requests — a preempted request releases its
 *     blocks and re-queues at the front of its class, its prefix
 *     (prefilled prompt + generated tokens) retained in the
 *     compute-enabled expander tier, so resumption re-acquires blocks
 *     and pays only a restore transfer, never a re-prefill.
 *
 * The engine is a deterministic discrete-time loop over an abstract
 * cost model (three callbacks), so the same schedule drives
 * LongSight, dense-GPU, or closed-form engines, and metrics are
 * bit-identical for a fixed seed at any thread count — the step loop
 * carries the LS_DETERMINISTIC contract, lint-enforced.
 */

#ifndef LONGSIGHT_SIM_SERVING_ENGINE_HH
#define LONGSIGHT_SIM_SERVING_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "drex/partition_manager.hh"
#include "model/traffic.hh"
#include "sim/serving.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace longsight {

/**
 * Engine policy knobs.
 */
struct ServingEngineConfig
{
    /** Max requests resident at once (prefilling + decoding). */
    uint32_t maxBatch = 64;

    /**
     * Prefill chunk quantum (tokens). One chunk is processed per
     * engine step, fused with the decode iteration. 0 disables
     * chunking: a prompt prefills monolithically in one step, so the
     * prefill callback sees the whole prompt as one chunk (a
     * serialized-prefill schedule, or free prefill for contexts that
     * are already resident).
     */
    uint32_t prefillChunkTokens = 2048;

    /** Allow preempting Batch requests for blocked Interactive ones. */
    bool preemption = true;

    /** Latency objectives goodput is scored against. */
    SloTargets slo;
};

/**
 * The engine's cost model. decodeStepTime is required; the others
 * may be null (zero cost).
 */
struct ServingCostModel
{
    /**
     * Cost of prefilling one chunk of `chunk_tokens` prompt tokens
     * when `done_tokens` of the prompt are already resident (models
     * can charge for attention against the growing prefix).
     */
    std::function<Tick(uint64_t chunk_tokens, uint64_t done_tokens)>
        prefillChunkTime;

    /** One decode iteration over the decoding requests' contexts. */
    std::function<Tick(const std::vector<uint64_t> &contexts)>
        decodeStepTime;

    /**
     * Cost of restoring a preempted request's retained prefix of
     * `context_tokens` tokens into freshly re-acquired blocks (e.g.
     * a CXL bulk transfer from the expander tier). Null = free.
     */
    std::function<Tick(uint64_t context_tokens)> restoreTime;
};

/**
 * Measured inputs for the block-sparse prompt pass's cost model
 * (core/prefill_attention): how much of a dense prefill chunk is
 * attention, what fraction of the dense Q.K token pairs the sparse
 * pass actually attends (BlockSparsePrefill stats), and what the
 * packed-sign block estimation itself costs relative to dense
 * attention. All three are deterministic for a fixed workload, so a
 * wrapped model stays gateable.
 */
struct SparsePrefillCostParams
{
    /** Attention's share of the dense chunk cost (0..1); the rest
     *  (projections/FFN) is unaffected by sparsity. */
    double attentionShare = 0.5;
    /** Attended / dense token-pair fraction (1 = fully dense). */
    double attendedFraction = 1.0;
    /** Signature build + scan cost as a fraction of the dense
     *  attention cost (the estimation overhead). */
    double estimationOverhead = 0.0;
};

/**
 * Wrap a dense prefillChunkTime callback into the sparse-prefill
 * model: chunk cost = dense * ((1 - attentionShare) + attentionShare
 * * (attendedFraction + estimationOverhead)). Degenerates to the
 * dense callback when attendedFraction = 1 and overhead = 0.
 */
std::function<Tick(uint64_t, uint64_t)> sparsePrefillChunkTime(
    std::function<Tick(uint64_t, uint64_t)> dense,
    const SparsePrefillCostParams &params);

/**
 * Completion record for one request.
 */
struct RequestMetrics
{
    uint32_t id = 0;
    Priority priority = Priority::Batch;
    /** Arrival -> first generated token; 0 for a prefill-only
     *  (zero-output) request, which never emits one. */
    Tick ttft = 0;
    Tick completion = 0;  //!< absolute finish time
    uint32_t tokens = 0;  //!< generated tokens
    double maxTbtMs = 0.0; //!< worst streaming gap
    uint32_t preemptions = 0;
    bool sloAttained = false; //!< ttft and every tbt within targets
};

/**
 * A request the engine refused to serve, and why.
 */
struct RejectedRequest
{
    uint32_t id = 0;
    std::string reason;
};

/**
 * Aggregate outcome of serving one trace. Every trace request lands in
 * exactly one of `requests` or `rejected`; throughput, goodput and
 * attainment count served requests only.
 */
struct ServingEngineResult
{
    explicit ServingEngineResult(const SloTargets &slo);

    std::vector<RequestMetrics> requests; //!< completion order
    std::vector<RejectedRequest> rejected; //!< arrival order
    Tick makespan = 0;
    uint64_t totalTokens = 0;
    double throughputTokensPerSec = 0.0;
    /** Tokens of SLO-attained requests per second of makespan. */
    double goodputTokensPerSec = 0.0;
    /** Fraction of requests that attained both SLOs. */
    double sloAttainment = 0.0;

    RunningStat ttftMs;
    RunningStat tbtMs;
    Histogram ttftHist; //!< sized from slo.ttftMs (sloHistogram)
    Histogram tbtHist;  //!< sized from slo.tbtMs

    // Quantiles + overflow fractions, filled by finalize().
    double ttftP50Ms = 0.0, ttftP99Ms = 0.0, ttftOverflow = 0.0;
    double tbtP50Ms = 0.0, tbtP99Ms = 0.0, tbtOverflow = 0.0;

    // Schedule counters.
    uint64_t prefillChunks = 0; //!< chunk work items processed
    uint64_t restores = 0;      //!< preempted prefixes restored
    uint64_t preemptions = 0;
    uint64_t gateHolds = 0;     //!< admission attempts blocked on blocks
    uint32_t peakActive = 0;
    uint64_t peakBlocks = 0;
    uint64_t blockBudget = 0;
    /** Blocks NOT charged at admission because requests adopted a
     *  published prefix (summed over admissions, re-admissions too). */
    uint64_t prefixBlocksSaved = 0;

    /** Fill throughput/goodput/quantiles once the loop finishes. */
    void finalize(const SloTargets &slo);
};

/**
 * The engine. Construct with a config, cost model, and an optional
 * block ledger (null = unbounded memory); run() consumes one trace.
 * run() may be called repeatedly; each call starts from an idle
 * engine and an empty ledger.
 */
class ServingEngine
{
  public:
    ServingEngine(const ServingEngineConfig &cfg,
                  const ServingCostModel &cost,
                  BlockLedger *ledger = nullptr);

    /**
     * Serve the trace to completion; deterministic in its inputs. A
     * request whose private blocks exceed the whole ledger budget is
     * rejected before the loop. A zero-output request is prefill-only:
     * it pays its prefill chunks and leaves the step its prompt is
     * resident (at admission if the prompt is fully shared), never
     * decoding.
     */
    ServingEngineResult run(std::vector<ServingRequest> trace);

  private:
    ServingEngineConfig cfg_;
    ServingCostModel cost_;
    BlockLedger *ledger_;
};

} // namespace longsight

#endif // LONGSIGHT_SIM_SERVING_ENGINE_HH
