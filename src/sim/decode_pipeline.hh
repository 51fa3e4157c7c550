/**
 * @file
 * Functional end-to-end decode pipeline for one user (§6 execution
 * model): per-(layer, KV-head) KV caches on the "GPU" side, a staging
 * window that accumulates freshly generated KV pairs and flushes them
 * to the DReX device in 128-token object groups off the critical
 * path, and a decode step that offloads the sparse region per GQA
 * group to the device and combines the returned top-k with the local
 * dense window — verifiably equal to the all-software reference.
 *
 * This is the integration glue a real serving stack would own; here
 * it doubles as the strongest cross-module correctness check (the
 * GPU-side and device-side states evolve independently and must stay
 * consistent token by token).
 *
 * Attention work is dispatched per (layer, KV HEAD): each work item
 * serves its head's whole GQA query group with one pass over the
 * cache (the grouped multi-query kernels), and decodeStepBatch
 * extends the same grouping across concurrent requests — all queries
 * that hit the same (layer, KV head) across a serving batch are
 * adjacent in the dispatch order.
 */

#ifndef LONGSIGHT_SIM_DECODE_PIPELINE_HH
#define LONGSIGHT_SIM_DECODE_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hybrid_attention.hh"
#include "core/kv_cache.hh"
#include "core/prefill_attention.hh"
#include "drex/drex_device.hh"
#include "model/workload.hh"
#include "sim/serving.hh"

namespace longsight {

/**
 * Pipeline shape parameters (a slice of ModelConfig plus hybrid
 * settings small enough for functional simulation).
 */
struct PipelineConfig
{
    uint32_t numLayers = 2;
    uint32_t numQueryHeads = 8;
    uint32_t numKvHeads = 2;
    uint32_t headDim = 64;
    LongSightConfig hybrid;
    /** Tokens per bulk flush to DReX (Key Object group size, §6). */
    uint32_t flushGranularity = 128;
    bool trainItq = false;
    uint64_t seed = 1;

    /**
     * Paged GPU-side KV storage: the pipeline constructs a private
     * KvBlockPool of pagedPoolBlocks blocks x pagedBlockTokens tokens
     * and every (layer, KV head) cache becomes a block-table view into
     * it. Outputs are bit-identical to the flat layout; only storage
     * (and the residency accounting the pool keeps) changes.
     */
    bool pagedKv = false;
    uint32_t pagedBlockTokens = 128;
    /** Pool size in blocks; 0 = size for maxContext tokens/head. */
    uint32_t pagedPoolBlocks = 0;
    /** Context ceiling used to size a default pool (tokens). */
    uint32_t pagedMaxContext = 4096;

    /**
     * Block-sparse prompt pass (ROADMAP item 3): when enabled,
     * prefill()/prefillChunk() also run a BlockSparsePrefill per
     * (layer, KV head) over the prompt stream (self-queries: each
     * token's key doubles as its query vector, which keeps the
     * workloads' RNG streams untouched and every decode result
     * bit-identical to a pipeline without this path). Complete
     * Q-blocks are attended as chunks arrive; the partial tail is
     * deferred until flushPrefillAttention() — called automatically
     * before the first decode step — so chunked and monolithic
     * prefill stay bit-identical. Outputs land in
     * prefillAttentionOutput(layer, head).
     */
    bool prefillAttention = false;
    PrefillSparsityConfig prefillSparsity;
    /** Per-KV-head threshold override (the per-head accuracy knob);
     *  empty = prefillSparsity.threshold everywhere, else must hold
     *  numKvHeads entries. */
    std::vector<int> prefillHeadThresholds;
};

/**
 * Outcome of one decode step across all layers and query heads.
 */
struct PipelineStepResult
{
    uint64_t offloadsIssued = 0;  //!< device requests this step
    uint64_t tokensFlushed = 0;   //!< KV pairs shipped to DReX
    double minRetainedMass = 1.0; //!< worst (layer, query) retention
    bool deviceMatchedSoftware = true; //!< top-k equivalence held
};

/**
 * One user's functional decode loop over a DReX device.
 */
class DecodePipeline
{
  public:
    DecodePipeline(const PipelineConfig &cfg, DrexDevice &device,
                   uint32_t uid);

    /** Build an initial context of n tokens and flush eligible groups. */
    void prefill(size_t n);

    /**
     * Chunked-prefill hook for the serving engine: extend the prompt
     * by n more tokens and flush eligible groups. Chaining chunks is
     * bit-identical to one prefill() of the total (the workloads'
     * append path replays the exact token stream generate() would
     * produce), so a scheduler can interleave prompt chunks with
     * decode steps without perturbing any downstream result. The one
     * caveat is runtime ITQ training (trainItq): it fires once at a
     * context-length threshold, so chunk boundaries change which
     * prefix it trains on — train before chunking (or leave it off,
     * the default) when exact equivalence matters.
     */
    void prefillChunk(size_t n);

    /** Generate one token: append KV, maybe flush, offload, combine. */
    PipelineStepResult decodeStep();

    /**
     * Batched decode step for several concurrent requests (one
     * pipeline per resident serving job; all must share one model
     * shape). Produces results[i] bit-identical to calling
     * batch[i]->decodeStep() in order — only the work-item dispatch
     * changes: within each layer, combine/verify items are issued
     * KV-head-major across the whole batch, so every request's queries
     * against the same (layer, KV head) are adjacent and each item
     * serves its whole GQA group with ONE pass over that head's cache
     * (batchScoreSelectMultiSpans). Returns the step's scan-amortization
     * accounting.
     */
    static GroupedScanStats decodeStepBatch(
        const std::vector<DecodePipeline *> &batch,
        std::vector<PipelineStepResult> &results);

    /**
     * Finish the block-sparse prompt pass: attend the deferred
     * partial tail Q-block and freeze the pass (later context growth
     * is decode, not prompt). Called automatically before the first
     * decode step; explicit calls are idempotent. No-op when
     * prefillAttention is disabled.
     */
    void flushPrefillAttention();

    /** Per-query sparse prompt-pass outputs for one (layer, KV head);
     *  rows [0, processedTokens) are valid. */
    const Matrix &prefillAttentionOutput(uint32_t layer,
                                         uint32_t kv_head) const;

    /** The head's prompt-pass state (stats, decisions, processed). */
    const BlockSparsePrefill &prefillAttentionHead(uint32_t layer,
                                                   uint32_t kv_head) const;

    /** Prompt-pass stats merged over every (layer, KV head). */
    PrefillStats prefillAttentionStats() const;

    /** Current context length (tokens). */
    size_t contextLength() const;

    /** Tokens already resident on the device (per layer/head). */
    size_t flushedTokens() const { return flushed_; }

    /** Tokens still staged GPU-side beyond the flushed prefix. */
    size_t stagedTokens() const { return contextLength() - flushed_; }

    /** Query heads sharing each KV head (fixed GQA group size). */
    uint32_t groupSize() const { return group_; }

    /** The paged pool behind the GPU-side caches (null when flat). */
    KvBlockPool *blockPool() { return pool_.get(); }

  private:
    KvCache &gpuCache(uint32_t layer, uint32_t head);
    void flushEligibleGroups();
    void maybeTrainItq();
    /** Run the sparse prompt pass over newly appended prompt tokens
     *  (complete Q-blocks only unless flush). */
    void advancePrefillAttention(bool flush);

    /** Step phase 1-2: append one token everywhere, flush, size the
     *  per-step scratch. */
    void stepAppendAndFlush(PipelineStepResult &result);
    /** Step phase 3 for one layer: draw the grouped queries, submit
     *  the offload, drain responses. Returns whether an offload was
     *  issued (false while the flushed prefix is still dense). */
    bool stepOffloadLayer(uint32_t layer, PipelineStepResult &result,
                          std::vector<AttentionResponse> &responses);
    /** Step phase 4 for one (layer, KV head): combine + verify the
     *  head's WHOLE query group — one grouped scan serves all its
     *  queries' verifications. Writes only this head's lane slots. */
    void stepCombineHead(uint32_t layer, uint32_t kv_head, bool offload,
                         const std::vector<AttentionResponse> &responses);
    /** Fold the layer's lane verdicts into the step result. */
    void stepFoldLayer(PipelineStepResult &result);

    PipelineConfig cfg_;
    DrexDevice &device_;
    uint32_t uid_;
    /** Query-head -> KV-head group size, derived once at construction
     *  (numQueryHeads / numKvHeads) instead of per decode step. */
    uint32_t group_ = 1;
    // One workload per (layer, KV head) drives keys/values/queries.
    std::vector<HeadWorkload> workloads_;
    std::unique_ptr<KvBlockPool> pool_; //!< paged mode backing store
    std::vector<std::unique_ptr<KvCache>> gpuCaches_;
    size_t flushed_ = 0;
    bool itqInstalled_ = false;

    // Block-sparse prompt pass, one per (layer, KV head); empty when
    // cfg.prefillAttention is off. Frozen after the first flush so
    // decode-appended tokens are never mistaken for prompt queries.
    std::vector<std::unique_ptr<BlockSparsePrefill>> prefillAttn_;
    std::vector<Matrix> prefillOut_;
    bool prefillFrozen_ = false;

    // Decode-step scratch reused across steps (capacities persist, so
    // the steady-state step re-fills these without heap allocation).
    std::vector<Matrix> stepQueries_;       //!< per KV head: group x d
    std::vector<Matrix> stepFilterQueries_; //!< ITQ-space twins
    std::vector<double> laneMass_;          //!< per-lane retained mass
    std::vector<uint8_t> laneMatched_;      //!< per-lane A-verdict
    /** decodeStep()'s one-element batch view and result slot, kept as
     *  members so the single-request step allocates nothing per call. */
    std::vector<DecodePipeline *> selfBatch_;
    std::vector<PipelineStepResult> selfResults_;
};

} // namespace longsight

#endif // LONGSIGHT_SIM_DECODE_PIPELINE_HH
