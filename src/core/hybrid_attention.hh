/**
 * @file
 * LongSightAttn — the paper's hybrid dense-sparse attention module
 * (§5, §6). For each query and KV head:
 *
 *   1. *Dense part*: attention-sink tokens (the first few, §8.1.3) and
 *      a sliding window of the W most recent tokens are always
 *      attended, at full precision (on the GPU in the real system).
 *   2. *Sparse part*: the remaining middle region is filtered with
 *      Sign-Concordance Filtering in (ITQ-rotated) sign space,
 *      survivors are scored with full-precision dot products, and the
 *      top-k survivors are selected (on DReX in the real system).
 *   3. A single softmax over the combined candidate set produces the
 *      output (GPU-side step 5-7 of Figure 2b).
 *
 * This class is the functional reference. Its sparse part is
 * scfSelect (core/scf.hh), the same function the decode pipeline's
 * verification A runs, so the DReX device model must produce
 * bit-identical selections to it; the exactness property (threshold 0
 * + unbounded k == dense attention) is tested against it too.
 */

#ifndef LONGSIGHT_CORE_HYBRID_ATTENTION_HH
#define LONGSIGHT_CORE_HYBRID_ATTENTION_HH

#include <cstdint>
#include <vector>

#include "core/filter_stats.hh"
#include "core/kv_cache.hh"

namespace longsight {

/**
 * Tunable parameters of hybrid attention (§8.1.3 defaults).
 */
struct LongSightConfig
{
    uint32_t windowSize = 1024; //!< dense sliding window W
    uint32_t topK = 1024;       //!< k, per KV head
    uint32_t sinkTokens = 16;   //!< attention-sink prefix tokens
    int defaultThreshold = 0;   //!< SCF threshold when not set per head
};

/**
 * Result of one hybrid attention evaluation for a single query head.
 */
struct HeadAttentionResult
{
    std::vector<float> output;      //!< headDim-long attention output
    std::vector<uint32_t> attended; //!< sorted global token indices used
    uint64_t sparseRaw = 0;         //!< sparse-region size
    uint64_t sparseSurvivors = 0;   //!< keys passing SCF
    uint64_t sparseSelected = 0;    //!< top-k selections
    bool usedSparse = false;        //!< context long enough to offload
};

/**
 * Hybrid dense-sparse attention over per-head KvCaches.
 */
class LongSightAttn
{
  public:
    /**
     * @param cfg hybrid parameters
     * @param num_kv_heads KV-head count (thresholds are per KV head)
     */
    LongSightAttn(LongSightConfig cfg, uint32_t num_kv_heads);

    const LongSightConfig &config() const { return cfg_; }
    uint32_t numKvHeads() const { return numKvHeads_; }

    /** Per-KV-head SCF threshold access. */
    void setThreshold(uint32_t kv_head, int threshold);
    int threshold(uint32_t kv_head) const;

    /**
     * Evaluate hybrid attention for one query against one KV head's
     * cache. The query is a post-RoPE headDim vector (queries of all
     * heads in a GQA group use the same cache and threshold).
     */
    HeadAttentionResult computeHead(const std::vector<float> &q,
                                    const KvCache &cache,
                                    uint32_t kv_head) const;

    /**
     * Query-group form — the decode hot path: evaluate num_queries
     * queries that share one KV head's cache (the GQA group, or any
     * batch of queries pinned to this KV head) in ONE pass over the
     * cache. Query g's headDim vector is queries + g * query_stride;
     * its result lands in rs[g], whose vectors are cleared and refilled
     * in place (their capacity is reused, so repeated calls on the same
     * results are heap-allocation-free). The sparse region's packed
     * sign rows stream through every query's concordance test and each
     * survivor key is scored once for the whole group before every
     * query's top-k selector sees its own survivors
     * (batchScoreSelectMultiSpans), so the cache is read once for the
     * whole group instead of once per query — per query, results are
     * bit-identical to a one-query call, which is what computeHead
     * makes.
     */
    void computeGroupInto(const float *queries, size_t query_stride,
                          uint32_t num_queries, const KvCache &cache,
                          uint32_t kv_head, HeadAttentionResult *rs) const;

    /** Fold a result's counts into running filter statistics. */
    static void recordStats(const HeadAttentionResult &r, FilterStats &fs);

    /**
     * Token ranges of the dense part for a context of length n:
     * [0, sinks) and [win_start, n). The sparse region is
     * [sinks, win_start); empty when the context fits densely.
     */
    void densePartition(size_t n, size_t &sinks, size_t &win_start) const;

  private:
    LongSightConfig cfg_;
    uint32_t numKvHeads_;
    std::vector<int> thresholds_;
};

} // namespace longsight

#endif // LONGSIGHT_CORE_HYBRID_ATTENTION_HH
