#include "core/kv_block_pool.hh"

#include <algorithm>

#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {

KvRows::KvRows(uint32_t head_dim, size_t rows)
    : headDim_(head_dim), keys_(rows, head_dim), values_(rows, head_dim),
      rawSigns_(head_dim), rotatedSigns_(head_dim)
{
    LS_ASSERT(head_dim > 0, "KvRows head dim must be positive");
    rawSigns_.resizeRows(rows);
}

void
KvRows::reserve(size_t n)
{
    reserved_ = std::max(reserved_, n);
    keys_.reserveRows(n);
    values_.reserveRows(n);
    rawSigns_.reserveRows(n);
    if (rotated_)
        rotatedSigns_.reserveRows(n);
}

void
KvRows::ensureRotated()
{
    if (rotated_)
        return;
    rotated_ = true;
    rotatedSigns_.reserveRows(std::max(reserved_, rows()));
    rotatedSigns_.resizeRows(rows());
}

void
KvRows::writeToken(size_t row, const float *key, const float *value,
                   const float *rotated_key)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    if (row == rows()) {
        // Growth goes through the amortized appends; reserve()
        // preallocates.
        keys_.appendRow(key);
        values_.appendRow(value);
        rawSigns_.appendRow(key);
        if (rotated_) {
            LS_ASSERT(rotated_key, "new rotated-sign row needs a key");
            rotatedSigns_.appendRow(rotated_key);
        }
    } else {
        keys_.setRow(row, key);
        values_.setRow(row, value);
        rawSigns_.setRow(row, key);
        if (rotated_key)
            rotatedSigns_.setRow(row, rotated_key);
    }
}

void
KvRows::writeRotatedSigns(size_t row, const float *rotated_key)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    rotatedSigns_.setRow(row, rotated_key);
}

void
KvRows::copyRows(size_t src, size_t dst, size_t count)
{
    std::copy_n(keys_.row(src), count * headDim_, keys_.row(dst));
    std::copy_n(values_.row(src), count * headDim_, values_.row(dst));
    const size_t wpr = rawSigns_.wordsPerRow();
    std::copy_n(rawSigns_.data() + src * wpr, count * wpr,
                rawSigns_.data() + dst * wpr);
    if (rotated_)
        std::copy_n(rotatedSigns_.data() + src * wpr, count * wpr,
                    rotatedSigns_.data() + dst * wpr);
}

KvBlockPool::KvBlockPool(uint32_t head_dim, uint32_t block_tokens,
                         uint32_t num_blocks, uint32_t hbm_budget_blocks)
    : headDim_(head_dim), blockTokens_(block_tokens),
      numBlocks_(num_blocks), hbmBudget_(hbm_budget_blocks),
      rows_(head_dim, size_t{num_blocks} * block_tokens)
{
    LS_ASSERT(block_tokens > 0, "KvBlockPool block size must be positive");
    LS_ASSERT(num_blocks > 0, "KvBlockPool needs at least one block");
    // Eager, unlike a flat cache's: DecodePipeline::maybeTrainItq
    // installs rotations on many caches of one pool in parallel, so a
    // lazily built shared arena would race.
    rows_.ensureRotated();
    refs_.assign(num_blocks, 0);
    tier_.assign(num_blocks, static_cast<uint8_t>(Tier::Expander));
    scanned_ = std::make_unique<std::atomic<uint64_t>[]>(num_blocks);
    survivors_ = std::make_unique<std::atomic<uint64_t>[]>(num_blocks);
    for (uint32_t b = 0; b < num_blocks; ++b) {
        scanned_[b].store(0, std::memory_order_relaxed);
        survivors_[b].store(0, std::memory_order_relaxed);
    }
    // LIFO free list, lowest block on top: single-threaded fills draw
    // blocks in ascending physical order, which keeps the paged-vs-flat
    // differential tests easy to reason about.
    free_.reserve(num_blocks);
    for (uint32_t b = num_blocks; b > 0; --b)
        free_.push_back(b - 1);
}

uint32_t
KvBlockPool::usedBlocks() const
{
    SpinGuard g(lock_);
    return numBlocks_ - static_cast<uint32_t>(free_.size());
}

uint32_t
KvBlockPool::freeBlocks() const
{
    SpinGuard g(lock_);
    return static_cast<uint32_t>(free_.size());
}

double
KvBlockPool::occupancy() const
{
    return static_cast<double>(usedBlocks()) /
           static_cast<double>(numBlocks_);
}

uint32_t
KvBlockPool::allocBlock()
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    SpinGuard g(lock_);
    if (free_.empty())
        return kInvalidBlock;
    const uint32_t b = free_.back();
    free_.pop_back();
    refs_[b] = 1;
    tier_[b] = static_cast<uint8_t>(Tier::Expander);
    scanned_[b].store(0, std::memory_order_relaxed);
    survivors_[b].store(0, std::memory_order_relaxed);
    return b;
}

void
KvBlockPool::retainBlock(uint32_t block)
{
    SpinGuard g(lock_);
    LS_ASSERT(block < numBlocks_ && refs_[block] > 0,
              "retain of unallocated block ", block);
    ++refs_[block];
}

void
KvBlockPool::releaseBlock(uint32_t block)
{
    SpinGuard g(lock_);
    LS_ASSERT(block < numBlocks_ && refs_[block] > 0,
              "release of unallocated block ", block);
    if (--refs_[block] == 0)
        free_.push_back(block); // LS_LINT_ALLOW(alloc): capacity reserved at construction
}

uint32_t
KvBlockPool::refCount(uint32_t block) const
{
    SpinGuard g(lock_);
    LS_ASSERT(block < numBlocks_, "refCount block out of range");
    return refs_[block];
}

void
KvBlockPool::copyBlock(uint32_t src, uint32_t dst)
{
    LS_ASSERT(src < numBlocks_ && dst < numBlocks_ && src != dst,
              "copyBlock bad pair ", src, " -> ", dst);
    rows_.copyRows(size_t{src} * blockTokens_, size_t{dst} * blockTokens_,
                   blockTokens_);
}

void
KvBlockPool::recordScan(uint32_t block, uint64_t rows_scanned,
                        uint64_t survivors)
{
    LS_HOT_PATH();
    LS_NO_LOCK();
    LS_ASSERT(block < numBlocks_, "recordScan block out of range");
    scanned_[block].fetch_add(rows_scanned, std::memory_order_relaxed);
    survivors_[block].fetch_add(survivors, std::memory_order_relaxed);
}

Tier
KvBlockPool::tier(uint32_t block) const
{
    LS_ASSERT(block < numBlocks_, "tier block out of range");
    SpinGuard g(lock_);
    return static_cast<Tier>(tier_[block]);
}

uint32_t
KvBlockPool::hbmResident() const
{
    SpinGuard g(lock_);
    uint32_t n = 0;
    for (uint32_t b = 0; b < numBlocks_; ++b)
        if (tier_[b] == static_cast<uint8_t>(Tier::Hbm))
            ++n;
    return n;
}

uint32_t
KvBlockPool::rebalance()
{
    // Snapshot used blocks and their survivor totals under the lock,
    // then rank outside it. Ties break toward the lower block id so
    // the ranking is deterministic.
    struct Ranked
    {
        uint64_t survivors;
        uint32_t block;
    };
    std::vector<Ranked> used;
    {
        SpinGuard g(lock_);
        used.reserve(numBlocks_ - free_.size());
        for (uint32_t b = 0; b < numBlocks_; ++b)
            if (refs_[b] > 0)
                used.push_back(
                    {survivors_[b].load(std::memory_order_relaxed), b});
    }
    std::sort(used.begin(), used.end(),
              [](const Ranked &a, const Ranked &b) {
                  if (a.survivors != b.survivors)
                      return a.survivors > b.survivors;
                  return a.block < b.block;
              });

    // Reacquire to apply: tier_, the promotion/eviction counters, and
    // hbmBudget_ are all guarded state, and concurrent readers
    // (tier(), hbmResident(), the counter accessors) must never see a
    // half-applied re-ranking.
    uint32_t changes = 0;
    {
        SpinGuard g(lock_);
        for (size_t i = 0; i < used.size(); ++i) {
            const uint32_t b = used[i].block;
            const uint8_t want = i < hbmBudget_
                                     ? static_cast<uint8_t>(Tier::Hbm)
                                     : static_cast<uint8_t>(Tier::Expander);
            if (tier_[b] != want) {
                ++changes;
                if (want == static_cast<uint8_t>(Tier::Hbm))
                    ++promotions_;
                else
                    ++evictions_;
                tier_[b] = want;
            }
            // Age the popularity signal so a block must keep surviving
            // scans to keep its HBM slot.
            survivors_[b].store(used[i].survivors / 2,
                                std::memory_order_relaxed);
            scanned_[b].store(
                scanned_[b].load(std::memory_order_relaxed) / 2,
                std::memory_order_relaxed);
        }
    }
    return changes;
}

uint64_t
KvBlockPool::survivorRows(uint32_t block) const
{
    LS_ASSERT(block < numBlocks_, "survivorRows block out of range");
    return survivors_[block].load(std::memory_order_relaxed);
}

uint64_t
KvBlockPool::scannedRows(uint32_t block) const
{
    LS_ASSERT(block < numBlocks_, "scannedRows block out of range");
    return scanned_[block].load(std::memory_order_relaxed);
}

bool
KvBlockPool::publishPrefix(uint64_t hash, const uint32_t *blocks,
                           size_t count)
{
    LS_ASSERT(count > 0, "publishPrefix needs at least one block");
    SpinGuard g(lock_);
    auto [it, inserted] = prefixes_.try_emplace(
        hash, std::vector<uint32_t>(blocks, blocks + count));
    if (!inserted)
        return false;
    for (size_t i = 0; i < count; ++i) {
        LS_ASSERT(blocks[i] < numBlocks_ && refs_[blocks[i]] > 0,
                  "publishPrefix of unallocated block ", blocks[i]);
        ++refs_[blocks[i]]; // registry pin
    }
    return true;
}

size_t
KvBlockPool::adoptPrefix(uint64_t hash, std::vector<uint32_t> &blocks_out)
{
    SpinGuard g(lock_);
    auto it = prefixes_.find(hash);
    if (it == prefixes_.end()) {
        ++prefixMisses_;
        return 0;
    }
    ++prefixHits_;
    for (uint32_t b : it->second) {
        ++refs_[b];
        blocks_out.push_back(b);
    }
    const size_t tokens = it->second.size() * blockTokens_;
    prefixSharedTokens_ += tokens;
    return tokens;
}

void
KvBlockPool::unpublishPrefix(uint64_t hash)
{
    std::vector<uint32_t> pinned;
    {
        SpinGuard g(lock_);
        auto it = prefixes_.find(hash);
        if (it == prefixes_.end())
            return;
        pinned = std::move(it->second);
        prefixes_.erase(it);
    }
    for (uint32_t b : pinned)
        releaseBlock(b);
}

} // namespace longsight
