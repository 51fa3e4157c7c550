/**
 * @file
 * Block-sparse prefill attention — the prompt-pass twin of the decode
 * side's Sign-Concordance Filtering (SALE-style low-bit block
 * estimation; ROADMAP item 3). The prompt's queries are tiled into
 * Q-blocks and the KV stream into K-blocks; each block is summarized
 * by a packed-sign majority signature (blockSignReduce), and Q-block x
 * K-block signature concordance decides which past K-blocks a Q-block
 * attends to. Causal-frontier, sink, and local-window blocks are
 * always dense; the remaining candidates pass through a per-head
 * accuracy knob (concordance threshold or top-fraction). Inside the
 * surviving blocks the math is the exact subsetAttentionInto
 * composition, run for up to kDotMultiQueries queries at a time
 * (batchDotScaleMulti scores the group in one pass over the shared
 * token list), so knob = Dense degenerates BIT-IDENTICALLY to the
 * dense causal prompt pass (densePrefillReference): per query the
 * attended set becomes the full causal prefix, every lane of the
 * grouped dot over an ascending identity index list is contractually
 * batchDotScaleRange's math, softmax is shared code, and the weighted
 * value sum keeps the reference loop's float multiply-then-add order.
 *
 * Chunked prefill: advance() processes only COMPLETE Q-blocks eagerly
 * and defers the partial tail until a flush, so any chunking of the
 * same token stream produces bit-identical outputs to one monolithic
 * pass (the estimation inputs — whole-block signatures — never depend
 * on where chunk boundaries fell).
 *
 * Estimation runs in raw sign space (no ITQ rotation): the prompt
 * pass summarizes blocks of *pre-rotation* keys, matching SALE's
 * untrained low-bit estimates and keeping the path dependency-free of
 * the decode-side ITQ training schedule.
 */

#ifndef LONGSIGHT_CORE_PREFILL_ATTENTION_HH
#define LONGSIGHT_CORE_PREFILL_ATTENTION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/sign_matrix.hh"
#include "tensor/tensor.hh"

namespace longsight {

/** How the per-head accuracy knob selects estimated K-blocks. */
enum class PrefillSparsityMode
{
    /** Keep every block — bit-identical to the dense prompt pass. */
    Dense,
    /** Keep blocks whose signature concordance >= threshold. */
    Threshold,
    /** Keep the best ceil(keepFraction * candidates) blocks per
     *  Q-block (ties broken toward lower block index). */
    TopFraction,
};

/**
 * Per-head block-sparsity knob for the prompt pass. The forced-dense
 * regions (sinks, local window, causal frontier) are part of the
 * accuracy contract: estimation can only ever drop blocks strictly
 * older than the window that are not sink blocks.
 */
struct PrefillSparsityConfig
{
    /** Tokens per Q/K block (the estimation granularity). */
    size_t blockTokens = 128;
    PrefillSparsityMode mode = PrefillSparsityMode::Threshold;
    /** Threshold mode: keep K-blocks with signature concordance
     *  (dim - popcount(xor)) at or above this. */
    int threshold = 0;
    /** TopFraction mode: fraction of candidate blocks kept. */
    double keepFraction = 0.25;
    /** Always-dense prefix tokens (rounded up to whole blocks). */
    size_t sinkTokens = 16;
    /** Always-dense trailing window per query: every query attends
     *  densely to at least this many immediately preceding tokens. */
    size_t windowTokens = 512;
    /** Record per-Q-block decisions (tests/bench introspection). */
    bool recordDecisions = false;
    /**
     * Run estimation and block selection but skip the attention math:
     * stats/decisions are exactly those of a real pass, the output
     * matrix is never touched (advance() then accepts an empty one).
     * This is the bench's knob-sweep mode — the full 8B/32K shape is
     * swept at signature-scan cost instead of attention cost.
     */
    bool estimateOnly = false;
};

/** Aggregate accounting for one head's sparse prompt pass. */
struct PrefillStats
{
    uint64_t qBlocks = 0;         //!< Q-blocks processed
    uint64_t candidateBlocks = 0; //!< estimatable (non-forced) K-blocks
    uint64_t keptBlocks = 0;      //!< candidates the knob kept
    uint64_t forcedBlocks = 0;    //!< sink + window + frontier blocks
    uint64_t attendedTokens = 0;  //!< sum over queries of attended set
    uint64_t denseTokens = 0;     //!< sum over queries of causal prefix

    /** Fraction of estimatable K-blocks skipped (0 when none). */
    double blockSkipFraction() const
    {
        return candidateBlocks == 0
            ? 0.0
            : 1.0 -
                static_cast<double>(keptBlocks) /
                static_cast<double>(candidateBlocks);
    }

    /** Attended / dense token-pair fraction (1 when dense). */
    double attendedFraction() const
    {
        return denseTokens == 0
            ? 1.0
            : static_cast<double>(attendedTokens) /
                static_cast<double>(denseTokens);
    }

    void merge(const PrefillStats &o);
};

/** One Q-block's estimation outcome (recordDecisions mode). */
struct PrefillBlockDecision
{
    uint32_t qBlock = 0;       //!< Q-block index
    uint32_t qBegin = 0;       //!< first query token processed
    uint32_t qEnd = 0;         //!< one past the last query token
    uint32_t sinkBlocks = 0;   //!< forced blocks [0, sinkBlocks)
    uint32_t windowStart = 0;  //!< forced blocks [windowStart, qBlock]
    uint32_t candidates = 0;   //!< estimatable blocks offered the knob
    std::vector<uint32_t> keptBlocks; //!< knob survivors, ascending
};

/**
 * Stateful block-sparse prompt pass for ONE attention head. Feed it a
 * growing query/key/value stream via advance(); it emits per-query
 * attention outputs into the caller's matrix as Q-blocks complete.
 */
class BlockSparsePrefill
{
  public:
    BlockSparsePrefill(size_t headDim, const PrefillSparsityConfig &cfg);

    /**
     * Extend processing to the first upTo tokens: rows [0, upTo) of
     * queries/keys/values are valid and out has >= upTo rows of
     * headDim columns. Complete Q-blocks in [processedTokens(), upTo)
     * are attended now; a partial trailing block is deferred until a
     * call with flush = true (out rows for deferred queries are left
     * untouched). upTo must not shrink between calls. Queries in this
     * synthetic pipeline are the token's own post-RoPE key vector
     * (self-query); any per-row query matrix works.
     *
     * Deterministic and bit-identical for any chunking of the same
     * stream, any thread count, and any kernel backend — provided
     * flush is only raised once, at the true end of the prompt (an
     * early flush processes a then-partial block whose signature a
     * longer stream would have completed differently).
     */
    void advance(const Matrix &queries, const Matrix &keys,
                 const Matrix &values, float scale, size_t upTo,
                 bool flush, Matrix &out);

    /** Queries attended so far (== out rows filled). */
    size_t processedTokens() const { return processed_; }

    /** Complete K-blocks summarized into signatures so far. */
    size_t signatureBlocks() const { return sigBlocks_; }

    const PrefillStats &stats() const { return stats_; }
    const PrefillSparsityConfig &config() const { return cfg_; }

    /** Per-Q-block logs (empty unless cfg.recordDecisions). */
    const std::vector<PrefillBlockDecision> &decisions() const
    {
        return decisions_;
    }

  private:
    struct QBlockTask
    {
        uint32_t block = 0;       //!< Q-block index
        uint32_t qBegin = 0;      //!< first query token
        uint32_t qEnd = 0;        //!< one past last query token
        uint32_t windowStart = 0; //!< first forced window block
        uint32_t keptOffset = 0;  //!< into keptBuf_
        uint32_t keptCount = 0;
        uint32_t candidates = 0;  //!< estimatable block count
    };

    size_t windowStartBlock(size_t q_begin) const;
    void extendSignatures(const Matrix &keys, size_t full_blocks);
    void estimateTasks(const Matrix &queries);
    void runTask(const QBlockTask &t, const Matrix &queries,
                 const Matrix &keys, const Matrix &values, float scale,
                 Matrix &out, PrefillStats &stats) const;

    size_t headDim_;
    PrefillSparsityConfig cfg_;
    SignMatrix blockSigs_;   //!< one majority row per complete K-block
    size_t sigBlocks_ = 0;
    size_t processed_ = 0;
    PrefillStats stats_;
    std::vector<PrefillBlockDecision> decisions_;
    // Per-advance staging, members so capacity persists across calls.
    std::vector<QBlockTask> tasks_;
    std::vector<uint32_t> keptBuf_;
    std::vector<PrefillStats> taskStats_;
};

/**
 * Dense causal prompt pass (the correctness baseline): for every
 * query i in [0, upTo), softmax(q_i . K[0..i] * scale) . V[0..i] into
 * out.row(i). Same kernels, same double-precision ascending
 * accumulation as the decode-side dense path; parallel over queries
 * with bit-identical results at any thread count.
 */
void densePrefillReference(const Matrix &queries, const Matrix &keys,
                           const Matrix &values, float scale, size_t upTo,
                           Matrix &out);

} // namespace longsight

#endif // LONGSIGHT_CORE_PREFILL_ATTENTION_HH
