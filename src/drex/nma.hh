/**
 * @file
 * Near-Memory Accelerator (NMA) model (§7.1, §7.4). One NMA per
 * LPDDR5X package processes sparse-attention offloads for a single
 * (user, layer, KV head) at a time, alternating between:
 *
 *  - *filter epochs*: every bank's PFU filters one 128-key block in
 *    parallel (up to banks x 128 keys per epoch per package); the NMA
 *    then reads one bitmap per bank per query;
 *  - *scoring*: each key that survives for any query of the group is
 *    fetched once at full precision, striped across all 8 channels
 *    (§7.3.3), and dot-producted against the whole query group; and
 *  - *ranking*: a bounded top-k (hardware cap 1024) is maintained per
 *    query over the keys its own bitmap kept.
 *
 * After ranking, the selected value vectors are read from DRAM; their
 * CXL transfer is charged by the DCC/system layer. Timing constants
 * (bitmap generation d x 1.25 ns, bitmap read 120.4 ns, address
 * generation 1024 ns) come from the paper's RTL synthesis (§8.2).
 *
 * The NMA runs functionally when the offload carries real data (its
 * top-k then matches the software LongSightAttn reference bit-exactly)
 * or in timing-only mode with a modelled survivor fraction, which is
 * how million-token configurations are simulated.
 */

#ifndef LONGSIGHT_DREX_NMA_HH
#define LONGSIGHT_DREX_NMA_HH

#include <cstdint>
#include <vector>

#include "core/kv_cache.hh"
#include "core/topk.hh"
#include "dram/package.hh"
#include "drex/layout.hh"
#include "drex/pfu.hh"
#include "tensor/tensor.hh"
#include "util/units.hh"

namespace longsight {

/**
 * NMA hardware parameters (Table 2 / §8.2 defaults).
 */
struct NmaConfig
{
    double dotProductFlops = 26.11e12 / 8; //!< per-NMA FLOP/s (Table 2)
    uint32_t maxTopK = 1024;               //!< hardware top-k cap (§7.2)
    Tick bitmapReadLatency = fromNanoseconds(120.4);
    Tick addrGenOverhead = fromNanoseconds(1024.0);
    Tick topkInsertTime = fromNanoseconds(0.1); //!< pipelined sorter slot
};

/**
 * Stacked latency breakdown of one offload (Fig. 8 components).
 */
struct OffloadTiming
{
    Tick addrGen = 0;
    Tick filter = 0;
    Tick bitmapRead = 0;
    Tick score = 0;
    Tick rank = 0;
    Tick valueRead = 0;

    Tick total() const
    {
        return addrGen + filter + bitmapRead + score + rank + valueRead;
    }
};

/**
 * One sparse-attention offload for a single (user, layer, KV head).
 */
struct OffloadSpec
{
    uint32_t user = 0;
    uint32_t layer = 0;
    uint32_t kvHead = 0;
    uint64_t sparseBegin = 0; //!< first sparse-region token (global idx)
    uint64_t sparseEnd = 0;   //!< one past the last sparse-region token
    uint32_t numQueries = 1;  //!< GQA group size (<= 16)
    uint32_t k = 1024;
    int threshold = 0;

    // Functional inputs; leave null for timing-only simulation.
    const KvCache *cache = nullptr;   //!< flat: keys + signs by token id
    const Matrix *queries = nullptr;  //!< numQueries x d, original space
    const Matrix *filterQueries = nullptr; //!< numQueries x d, ITQ space

    // Timing-only survivor model (ignored when cache is set).
    double survivorFraction = 0.10;

    /**
     * Timing-only model of INT8 Key/Value Objects: survivor fetches
     * and value payloads carry head_dim + 4 bytes (INT8 payload plus a
     * scale) instead of full precision. Functional offloads score
     * full-precision keys and must leave this off.
     */
    bool quantizedScoring = false;
};

/**
 * Result and timing of one offload.
 */
struct OffloadResult
{
    std::vector<std::vector<ScoredIndex>> topk; //!< per query, best-first
    std::vector<uint32_t> valueTokens; //!< union of selected token indices
    uint64_t regionTokens = 0;
    uint64_t survivors = 0;
    uint64_t epochs = 0;
    uint64_t valueBytes = 0; //!< value payload later moved over CXL
    OffloadTiming timing;
    Tick startTick = 0;
    Tick doneTick = 0;
};

/**
 * The per-package near-memory accelerator.
 */
class Nma
{
  public:
    Nma(const NmaConfig &cfg, const DataLayout &layout,
        DramPackage &package);

    const NmaConfig &config() const { return cfg_; }

    /** First tick this NMA can accept new work. */
    Tick busyUntil() const { return busyUntil_; }

    /**
     * Process one offload no earlier than `start` (and no earlier than
     * the NMA frees up). Advances busyUntil().
     */
    OffloadResult process(Tick start, const OffloadSpec &spec);

  private:
    /**
     * Functional filtering of one epoch, entirely on caller (scratch)
     * storage. Each 128-key block's sign rows are streamed ONCE
     * through the whole query group (Pfu::filterBlock's multi-query
     * path), matching the hardware PFU's dataflow of testing all
     * in-flight queries against a key word as it passes by.
     * query_words holds numQueries packed sign rows of
     * words_per_query words each. The union of the group's survivors
     * lands in union_survivors in ascending token order (each key is
     * fetched and scored once even when several queries of the group
     * kept it); query q's own survivors land at slots + q * stride as
     * positions in that union list (each query ranks only keys its own
     * bitmap kept), with counts in slot_counts. Returns the union
     * count. union_survivors and every slot row must hold at least
     * epoch_end - epoch_begin entries.
     */
    size_t filterEpochFunctional(const OffloadSpec &spec,
                                 const uint64_t *query_words,
                                 size_t words_per_query,
                                 uint64_t epoch_begin, uint64_t epoch_end,
                                 uint32_t *union_survivors, uint32_t *slots,
                                 size_t stride, size_t *slot_counts) const;

    /** Timing-only survivor count for one epoch (deterministic). */
    uint64_t survivorsModelled(const OffloadSpec &spec,
                               uint64_t epoch_tokens) const;

    NmaConfig cfg_;
    const DataLayout &layout_;
    DramPackage &package_;
    Tick busyUntil_ = 0;
};

} // namespace longsight

#endif // LONGSIGHT_DREX_NMA_HH
