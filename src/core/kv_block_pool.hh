/**
 * @file
 * KvRows and KvBlockPool — the physical layer of the KV cache. §4's
 * "vector database" framing makes the KV cache an indexed store of
 * Key/Value Objects. KvRows is that store's row layout: keys, values
 * and packed raw/rotated sign rows, one row per token, the same for
 * every cache. KvBlockPool is the shared paged arena: one
 * KvRows sized for a fixed budget of block-granular slots, a free-list
 * allocator, per-block reference counts for copy-on-write prefix
 * sharing, and a two-tier residency model.
 *
 * Residency is an *accounting* layer, not a placement constraint:
 * DReX's expander tier is compute-enabled (the PFU scans wherever the
 * signs live), so a block is scannable in either tier and promotion /
 * eviction never changes an attention output — it only moves which
 * blocks the model charges HBM-latency vs. expander-latency for.
 * Promotion is driven by the SCF survivor counters each scan records:
 * blocks whose keys keep surviving the concordance filter are the
 * ones the NMA keeps fetching, so they earn the HBM window.
 *
 * Thread safety: block allocation / release / refcounts, residency
 * state, and the prefix registry are guarded by lock_ (an annotated
 * SpinLock; the LS_GUARDED_BY declarations below are enforced by the
 * clang -Wthread-safety CI rows); scan counters are relaxed atomics.
 * Placement (which physical block a lane draws) may vary run to run
 * under concurrency, but every consumer indexes through block tables,
 * so logical outputs never depend on placement.
 */

#ifndef LONGSIGHT_CORE_KV_BLOCK_POOL_HH
#define LONGSIGHT_CORE_KV_BLOCK_POOL_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "tensor/sign_matrix.hh"
#include "tensor/tensor.hh"
#include "util/annotations.hh"
#include "util/sync.hh"

namespace longsight {

/** Where a block's bytes are charged: the bounded HBM window or the
 *  CXL/DReX expander tier (default for newly allocated blocks). */
enum class Tier : uint8_t
{
    Expander = 0,
    Hbm = 1,
};

/** Sentinel for "no block" (allocation failure / empty table slot). */
inline constexpr uint32_t kInvalidBlock = UINT32_MAX;

/**
 * Per-token row stores: keys, values, and packed raw and ITQ-rotated
 * sign rows. Row r of every store belongs to the same token. A
 * KvBlockPool holds one sized for its whole budget and overwrites rows
 * in place; a flat KvCache owns one that grows by a row per append.
 * The rotated-sign store is allocated on demand (ensureRotated) for
 * every existing row and kept in step from then on.
 */
class KvRows
{
  public:
    /** `rows` zeroed rows of keys, values and raw signs. */
    explicit KvRows(uint32_t head_dim, size_t rows = 0);

    size_t rows() const { return keys_.rows(); }

    const Matrix &keys() const { return keys_; }
    const Matrix &values() const { return values_; }
    const SignMatrix &rawSigns() const { return rawSigns_; }
    const SignMatrix &rotatedSigns() const { return rotatedSigns_; }

    /**
     * Reserve capacity for n rows in every store, including the
     * rotated-sign rows ensureRotated() allocates later, so writes
     * that grow the store up to n rows perform no heap allocation.
     */
    void reserve(size_t n);

    /** Allocate the rotated-sign rows (cold; idempotent). */
    void ensureRotated();

    /**
     * Store one token at `row`: key, value and raw-sign rows, and the
     * rotated-sign row when rotated_key is given (required once
     * ensureRotated() ran and `row` is new). `row == rows()` grows
     * every store by one row (a flat cache's amortized append); a
     * lower row is overwritten in place. No locking: the writer has
     * exclusive access to the row.
     */
    void writeToken(size_t row, const float *key, const float *value,
                    const float *rotated_key);

    /** Overwrite the rotated-sign row (ITQ install). */
    void writeRotatedSigns(size_t row, const float *rotated_key);

    /** Copy rows [src, src + count) of every store onto [dst, dst +
     *  count); the two ranges must not overlap. */
    void copyRows(size_t src, size_t dst, size_t count);

  private:
    uint32_t headDim_;
    size_t reserved_ = 0; //!< reserve() ceiling for late stores
    Matrix keys_;
    Matrix values_;
    SignMatrix rawSigns_;
    SignMatrix rotatedSigns_;
    bool rotated_ = false; //!< rotated-sign rows allocated
};

/**
 * Fixed-budget arena of KV blocks shared by many KvCaches.
 *
 * One KvRows holds every block's rows — physical row
 * `b * blockTokens() + o` belongs to block b. It is sized once at
 * construction, rotated signs included, so row pointers are stable and
 * the decode hot path stays allocation-free.
 */
class KvBlockPool
{
  public:
    /**
     * Arena for `num_blocks` blocks of `block_tokens` tokens each.
     * `hbm_budget_blocks` bounds the HBM-resident tier (0 = everything
     * lives in the expander tier until setHbmBudget()).
     */
    KvBlockPool(uint32_t head_dim, uint32_t block_tokens,
                uint32_t num_blocks, uint32_t hbm_budget_blocks = 0);

    KvBlockPool(const KvBlockPool &) = delete;
    KvBlockPool &operator=(const KvBlockPool &) = delete;

    uint32_t headDim() const { return headDim_; }
    uint32_t blockTokens() const { return blockTokens_; }
    uint32_t numBlocks() const { return numBlocks_; }

    /** Blocks currently allocated (refcount > 0). */
    uint32_t usedBlocks() const;
    uint32_t freeBlocks() const;
    /** usedBlocks() / numBlocks(). */
    double occupancy() const;

    /** The rows of every block (physical row = block * blockTokens +
     *  offset). Caches write their own blocks' rows without locking. */
    KvRows &rows() { return rows_; }
    const KvRows &rows() const { return rows_; }

    // ---- Block lifecycle -------------------------------------------
    /** Pop a free block (refcount 1, Expander tier, counters zeroed);
     *  kInvalidBlock when the pool is exhausted. */
    uint32_t allocBlock();

    /** Drop a reference; the block returns to the free list at zero. */
    void releaseBlock(uint32_t block);

    uint32_t refCount(uint32_t block) const;

    /** Copy every row of block src onto block dst (CoW unshare). */
    void copyBlock(uint32_t src, uint32_t dst);

    // ---- Residency --------------------------------------------------
    /** Record one filter pass over a block: rows_scanned candidate
     *  rows offered, `survivors` of them past the SCF threshold. */
    void recordScan(uint32_t block, uint64_t rows_scanned,
                    uint64_t survivors);

    Tier tier(uint32_t block) const;
    uint32_t hbmBudget() const
    {
        SpinGuard g(lock_);
        return hbmBudget_;
    }
    void setHbmBudget(uint32_t blocks)
    {
        SpinGuard g(lock_);
        hbmBudget_ = blocks;
    }
    uint32_t hbmResident() const;

    /**
     * Re-rank residency: the hbmBudget() used blocks with the most
     * SCF survivors since the last rebalance win the HBM window;
     * everything else demotes to the expander. Counters are halved
     * afterwards so stale popularity ages out. Returns the number of
     * tier changes made.
     */
    uint32_t rebalance();

    uint64_t promotions() const
    {
        SpinGuard g(lock_);
        return promotions_;
    }
    uint64_t evictions() const
    {
        SpinGuard g(lock_);
        return evictions_;
    }

    // ---- Prefix sharing ---------------------------------------------
    /**
     * Publish `count` fully-populated blocks as the pages of a prompt
     * prefix keyed by `hash`. The registry retains each block (its own
     * pin), so published prefixes survive the publisher retiring.
     * Returns false (and retains nothing) if `hash` is already
     * published.
     */
    bool publishPrefix(uint64_t hash, const uint32_t *blocks,
                       size_t count);

    /**
     * Adopt a published prefix: retains each of its blocks and appends
     * the ids to blocks_out. Returns the token count covered
     * (count * blockTokens), or 0 on miss.
     */
    size_t adoptPrefix(uint64_t hash, std::vector<uint32_t> &blocks_out);

    uint64_t prefixHits() const
    {
        SpinGuard g(lock_);
        return prefixHits_;
    }
    uint64_t prefixMisses() const
    {
        SpinGuard g(lock_);
        return prefixMisses_;
    }
    /** Tokens served from shared pages instead of recomputed. */
    uint64_t prefixSharedTokens() const
    {
        SpinGuard g(lock_);
        return prefixSharedTokens_;
    }

  private:
    uint32_t headDim_;
    uint32_t blockTokens_;
    uint32_t numBlocks_;
    // guarded_by is late-parsed, so the forward reference to lock_ is
    // fine; the declaration stays here to match the ctor init order.
    uint32_t hbmBudget_ LS_GUARDED_BY(lock_);

    KvRows rows_;

    mutable SpinLock lock_;
    //!< LIFO free list
    std::vector<uint32_t> free_ LS_GUARDED_BY(lock_);
    //!< per-block refcount
    std::vector<uint32_t> refs_ LS_GUARDED_BY(lock_);
    //!< per-block Tier
    std::vector<uint8_t> tier_ LS_GUARDED_BY(lock_);

    std::unique_ptr<std::atomic<uint64_t>[]> scanned_;
    std::unique_ptr<std::atomic<uint64_t>[]> survivors_;
    uint64_t promotions_ LS_GUARDED_BY(lock_) = 0;
    uint64_t evictions_ LS_GUARDED_BY(lock_) = 0;

    std::map<uint64_t, std::vector<uint32_t>> prefixes_ LS_GUARDED_BY(lock_);
    uint64_t prefixHits_ LS_GUARDED_BY(lock_) = 0;
    uint64_t prefixMisses_ LS_GUARDED_BY(lock_) = 0;
    uint64_t prefixSharedTokens_ LS_GUARDED_BY(lock_) = 0;
};

} // namespace longsight

#endif // LONGSIGHT_CORE_KV_BLOCK_POOL_HH
