/**
 * @file
 * User Partition allocation (§7.3.3 "Partition Mapping"): DReX memory
 * is managed in Multi-Layer-Context-Slice slots — one slot holds one
 * KV head's keys/signs/values for all layers over up to 131,072
 * tokens, consuming rowsPerLayerGroup x numLayers rows in every bank
 * of one package. A user's partition takes numKvHeads slots per
 * 131K-token segment, spread across packages for head-level
 * parallelism (spatial multi-tenancy) and across segments for
 * temporal expansion. This manager performs the actual slot
 * accounting the capacity formulas approximate: admission control,
 * balanced placement, and reclamation.
 */

#ifndef LONGSIGHT_DREX_PARTITION_MANAGER_HH
#define LONGSIGHT_DREX_PARTITION_MANAGER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "drex/layout.hh"
#include "util/annotations.hh"
#include "util/sync.hh"

namespace longsight {

/**
 * One allocated slice slot.
 */
struct SliceGrant
{
    uint32_t kvHead = 0;
    uint32_t segment = 0; //!< 131K-token span index within the context
    uint32_t package = 0;
    uint32_t slot = 0;    //!< row-group index within the package
};

/**
 * A user's full partition.
 */
struct UserPartition
{
    uint32_t user = 0;
    uint64_t contextLen = 0;
    std::vector<SliceGrant> grants;
};

/**
 * Slot-level allocator over a DReX device's packages.
 */
class PartitionManager
{
  public:
    PartitionManager(const DataLayout &layout, uint32_t num_kv_heads,
                     uint32_t num_layers);

    /** Slice slots one package can hold (row budget / slot rows). */
    uint32_t slotsPerPackage() const { return slotsPerPackage_; }

    /** KV heads per user partition (each pages independently). */
    uint32_t numKvHeads() const { return numKvHeads_; }

    /** Total slots across the device. */
    uint32_t totalSlots() const;

    /** Slots currently allocated. */
    uint32_t usedSlots() const { return usedSlots_; }

    double utilization() const
    {
        return totalSlots()
            ? static_cast<double>(usedSlots_) / totalSlots()
            : 0.0;
    }

    /** Slots a context of this length needs. */
    uint32_t slotsForContext(uint64_t context_len) const;

    // Block-granular accounting (paged KV cache). The slot machinery
    // above carves DReX rows into 131K-token slices; a paged serving
    // stack instead reasons in KvBlockPool blocks of block_tokens
    // tokens each. These helpers translate the same row budget into
    // that currency; a device-backed BlockLedger (below) admits
    // against it, asking "do prompt + output fit the remaining
    // blocks?" rather than capping concurrent request count.

    /** Total device capacity in KV blocks of block_tokens tokens. */
    uint64_t blockBudget(uint32_t block_tokens) const;

    /** Blocks a context of this length occupies across all KV heads
     *  (each head pages its tokens independently). */
    uint64_t blocksForContext(uint64_t context_len,
                              uint32_t block_tokens) const;

    /**
     * Exact admission capacity: how many users of this context fit in
     * an empty device (the integer truth behind Fig. 7's user counts).
     */
    uint32_t maxUsersExact(uint64_t context_len) const;

    /**
     * Allocate a partition; placement prefers the least-loaded
     * package, breaking ties by rotating with (user + head) so heads
     * spread for parallelism. Returns nullopt when slots run out
     * (no partial allocations are retained).
     */
    std::optional<UserPartition> allocate(uint32_t user,
                                          uint64_t context_len);

    /** Release a user's partition (no-op for unknown users). */
    void release(uint32_t user);

    /** Per-package used-slot counts (for balance checks). */
    const std::vector<uint32_t> &packageLoad() const { return load_; }

    bool hasUser(uint32_t user) const { return users_.count(user) > 0; }

  private:
    const DataLayout &layout_;
    uint32_t numKvHeads_;
    uint32_t slotsPerPackage_;
    std::vector<uint32_t> load_;             //!< used slots per package
    std::vector<std::vector<bool>> slotUsed_; //!< [package][slot]
    std::map<uint32_t, UserPartition> users_;
    uint32_t usedSlots_ = 0;
};

/**
 * Running block-budget account over a fixed budget: the admission
 * currency the serving engine reserves against. It owns the in-use
 * arithmetic — reserve on admit, release on retire or preemption —
 * and asserts the budget is never exceeded. Construct from a
 * PartitionManager to use the device's real row budget and per-head
 * paging (bench/paged_cache does), or standalone for unit tests.
 *
 * Thread safety: the running account (inUse_) is guarded by an
 * internal mutex, so concurrent serving lanes can reserve/release
 * against one ledger. Note canReserve() followed by reserve() is not
 * atomic across the pair — admission paths that race must re-check via
 * reserve()'s budget assertion or serialize admissions externally.
 */
class BlockLedger
{
  public:
    /** Device-backed: budget and per-context block counts from pm. */
    BlockLedger(const PartitionManager &pm, uint32_t block_tokens);

    /** Standalone: explicit budget, ceil(tokens/block) * kv_heads. */
    BlockLedger(uint64_t budget_blocks, uint32_t block_tokens,
                uint32_t num_kv_heads = 1);

    /** Blocks a context of this many tokens occupies. */
    uint64_t blocksFor(uint64_t tokens) const;

    /**
     * Blocks a context needs BEYOND an adopted shared prefix. Only
     * full prefix blocks are shared — KvCache::publishPrefix truncates
     * the published prefix to a block boundary and a partial tail is
     * re-appended privately — so the private charge is blocksFor(
     * tokens) minus floor(shared_prefix_tokens / block) whole blocks
     * (per KV head). shared_prefix_tokens is clamped to tokens.
     */
    uint64_t privateBlocksFor(uint64_t tokens,
                              uint64_t shared_prefix_tokens) const;

    /** Whether a context fits beside the currently reserved blocks,
     *  charging only its private tail (shared_prefix_tokens = 0 for
     *  a context with no adopted prefix). */
    bool canReserve(uint64_t tokens, uint64_t shared_prefix_tokens) const;

    /** Reserve a context's blocks (callers gate with canReserve).
     *  Reserve and release must be called with the SAME
     *  shared_prefix_tokens so the account stays symmetric. */
    void reserve(uint64_t tokens, uint64_t shared_prefix_tokens);

    /** Return a context's blocks to the budget. */
    void release(uint64_t tokens, uint64_t shared_prefix_tokens);

    uint64_t budget() const { return budget_; }
    uint64_t inUse() const
    {
        MutexLock lock(mu_);
        return inUse_;
    }
    uint64_t freeBlocks() const
    {
        MutexLock lock(mu_);
        return budget_ - inUse_;
    }

  private:
    const PartitionManager *pm_ = nullptr; //!< null when standalone
    uint32_t blockTokens_;
    uint32_t numKvHeads_;
    uint64_t budget_;
    mutable Mutex mu_;
    uint64_t inUse_ LS_GUARDED_BY(mu_) = 0;
};

} // namespace longsight

#endif // LONGSIGHT_DREX_PARTITION_MANAGER_HH
