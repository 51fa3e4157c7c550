#include "drex/partition_manager.hh"

#include <algorithm>

#include "util/logging.hh"

namespace longsight {

PartitionManager::PartitionManager(const DataLayout &layout,
                                   uint32_t num_kv_heads,
                                   uint32_t num_layers)
    : layout_(layout), numKvHeads_(num_kv_heads)
{
    const uint64_t rows_per_slot =
        static_cast<uint64_t>(layout.rowsPerLayerGroup()) * num_layers;
    const uint64_t rows_per_bank = layout.timings().rowsPerBank();
    slotsPerPackage_ =
        static_cast<uint32_t>(rows_per_bank / rows_per_slot);
    LS_ASSERT(slotsPerPackage_ > 0, "slice slot exceeds bank rows");

    const uint32_t packages = layout.geometry().numPackages;
    load_.assign(packages, 0);
    slotUsed_.assign(packages,
                     std::vector<bool>(slotsPerPackage_, false));
}

uint32_t
PartitionManager::totalSlots() const
{
    return slotsPerPackage_ * layout_.geometry().numPackages;
}

uint32_t
PartitionManager::slotsForContext(uint64_t context_len) const
{
    if (context_len == 0)
        return 0;
    const uint64_t per_slice = layout_.maxTokensPerSlice();
    const uint64_t segments = (context_len + per_slice - 1) / per_slice;
    return static_cast<uint32_t>(segments * numKvHeads_);
}

uint64_t
PartitionManager::blockBudget(uint32_t block_tokens) const
{
    LS_ASSERT(block_tokens > 0, "block size must be positive");
    // The same token capacity the slot machinery manages, re-expressed
    // in fixed-size pages: every slot holds one head's slice of up to
    // maxTokensPerSlice tokens.
    return static_cast<uint64_t>(totalSlots()) *
        layout_.maxTokensPerSlice() / block_tokens;
}

uint64_t
PartitionManager::blocksForContext(uint64_t context_len,
                                   uint32_t block_tokens) const
{
    LS_ASSERT(block_tokens > 0, "block size must be positive");
    if (context_len == 0)
        return 0;
    const uint64_t per_head =
        (context_len + block_tokens - 1) / block_tokens;
    return per_head * numKvHeads_;
}

uint32_t
PartitionManager::maxUsersExact(uint64_t context_len) const
{
    const uint32_t need = slotsForContext(context_len);
    return need ? totalSlots() / need : 0;
}

std::optional<UserPartition>
PartitionManager::allocate(uint32_t user, uint64_t context_len)
{
    LS_ASSERT(!hasUser(user), "user ", user, " already has a partition");
    const uint32_t need = slotsForContext(context_len);
    if (need == 0 || usedSlots_ + need > totalSlots())
        return std::nullopt;

    UserPartition part;
    part.user = user;
    part.contextLen = context_len;

    const uint64_t per_slice = layout_.maxTokensPerSlice();
    const uint32_t segments = static_cast<uint32_t>(
        (context_len + per_slice - 1) / per_slice);
    const uint32_t packages = layout_.geometry().numPackages;

    for (uint32_t h = 0; h < numKvHeads_; ++h) {
        for (uint32_t s = 0; s < segments; ++s) {
            // Least-loaded package, rotating tie-break by (user+head)
            // so co-scheduled heads land on distinct packages.
            uint32_t best = 0;
            uint32_t best_load = UINT32_MAX;
            for (uint32_t i = 0; i < packages; ++i) {
                const uint32_t p = (user + h + i) % packages;
                if (load_[p] < slotsPerPackage_ &&
                    load_[p] < best_load) {
                    best = p;
                    best_load = load_[p];
                }
            }
            LS_ASSERT(best_load != UINT32_MAX,
                      "slot accounting out of sync");
            // First free slot in the chosen package.
            uint32_t slot = 0;
            while (slotUsed_[best][slot])
                ++slot;
            slotUsed_[best][slot] = true;
            ++load_[best];
            ++usedSlots_;
            part.grants.push_back({h, s, best, slot});
        }
    }
    auto [it, inserted] = users_.emplace(user, std::move(part));
    LS_ASSERT(inserted, "duplicate partition insert");
    return it->second;
}

void
PartitionManager::release(uint32_t user)
{
    auto it = users_.find(user);
    if (it == users_.end())
        return;
    for (const SliceGrant &g : it->second.grants) {
        LS_ASSERT(slotUsed_[g.package][g.slot],
                  "releasing an unallocated slot");
        slotUsed_[g.package][g.slot] = false;
        --load_[g.package];
        --usedSlots_;
    }
    users_.erase(it);
}

BlockLedger::BlockLedger(const PartitionManager &pm,
                         uint32_t block_tokens)
    : pm_(&pm), blockTokens_(block_tokens), numKvHeads_(pm.numKvHeads()),
      budget_(pm.blockBudget(block_tokens))
{
    LS_ASSERT(block_tokens > 0, "block size must be positive");
}

BlockLedger::BlockLedger(uint64_t budget_blocks, uint32_t block_tokens,
                         uint32_t num_kv_heads)
    : blockTokens_(block_tokens), numKvHeads_(num_kv_heads),
      budget_(budget_blocks)
{
    LS_ASSERT(block_tokens > 0 && num_kv_heads > 0,
              "degenerate block ledger");
}

uint64_t
BlockLedger::blocksFor(uint64_t tokens) const
{
    if (pm_)
        return pm_->blocksForContext(tokens, blockTokens_);
    if (tokens == 0)
        return 0;
    return (tokens + blockTokens_ - 1) / blockTokens_ * numKvHeads_;
}

uint64_t
BlockLedger::privateBlocksFor(uint64_t tokens,
                              uint64_t shared_prefix_tokens) const
{
    const uint64_t shared = std::min(shared_prefix_tokens, tokens);
    const uint64_t all = blocksFor(tokens);
    const uint64_t shared_blocks =
        shared / blockTokens_ * numKvHeads_;
    return all > shared_blocks ? all - shared_blocks : 0;
}

bool
BlockLedger::canReserve(uint64_t tokens) const
{
    return canReserve(tokens, 0);
}

bool
BlockLedger::canReserve(uint64_t tokens,
                        uint64_t shared_prefix_tokens) const
{
    const uint64_t need = privateBlocksFor(tokens, shared_prefix_tokens);
    MutexLock lock(mu_);
    return inUse_ + need <= budget_;
}

void
BlockLedger::reserve(uint64_t tokens)
{
    reserve(tokens, 0);
}

void
BlockLedger::reserve(uint64_t tokens, uint64_t shared_prefix_tokens)
{
    const uint64_t need = privateBlocksFor(tokens, shared_prefix_tokens);
    MutexLock lock(mu_);
    LS_ASSERT(inUse_ + need <= budget_, "block budget exceeded: ",
              inUse_, " + ", need, " > ", budget_);
    inUse_ += need;
}

void
BlockLedger::release(uint64_t tokens)
{
    release(tokens, 0);
}

void
BlockLedger::release(uint64_t tokens, uint64_t shared_prefix_tokens)
{
    const uint64_t need = privateBlocksFor(tokens, shared_prefix_tokens);
    MutexLock lock(mu_);
    LS_ASSERT(need <= inUse_, "releasing more blocks than reserved");
    inUse_ -= need;
}

} // namespace longsight
