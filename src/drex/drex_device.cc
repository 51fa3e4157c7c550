#include "drex/drex_device.hh"

#include "util/logging.hh"

namespace longsight {

DrexDevice::DrexDevice(const DrexConfig &cfg)
    : cfg_(cfg),
      layout_(cfg.geometry, cfg.timings, cfg.numKvHeads, cfg.numLayers,
              cfg.headDim)
{
    packages_.reserve(cfg.geometry.numPackages);
    for (uint32_t p = 0; p < cfg.geometry.numPackages; ++p)
        packages_.emplace_back(cfg.timings, cfg.geometry.channelsPerPackage);

    nmas_.reserve(cfg.geometry.numPackages);
    for (uint32_t p = 0; p < cfg.geometry.numPackages; ++p)
        nmas_.emplace_back(cfg.nma, layout_, packages_[p]);

    dcc_ = std::make_unique<Dcc>(cfg.dcc, layout_, nmas_);
}

DramPackage &
DrexDevice::package(uint32_t i)
{
    LS_ASSERT(i < packages_.size(), "package index out of range");
    return packages_[i];
}

Nma &
DrexDevice::nma(uint32_t i)
{
    LS_ASSERT(i < nmas_.size(), "NMA index out of range");
    return nmas_[i];
}

KvCache &
DrexDevice::writeContext(uint32_t user, uint32_t layer, uint32_t kv_head,
                         const Matrix &keys, const Matrix &values)
{
    const ContextKey key{user, layer, kv_head};
    KvCache *cache;
    {
        std::lock_guard<std::mutex> lock(contextsMu_);
        auto it = contexts_.find(key);
        if (it == contexts_.end()) {
            it = contexts_.emplace(key, KvCache(cfg_.headDim)).first;
        }
        cache = &it->second;
    }
    // The bulk copy happens outside the lock: concurrent writers hit
    // distinct (user, layer, head) caches, and map node references
    // survive later inserts.
    cache->appendAll(keys, values);
    LS_ASSERT(cache->size() <=
                  layout_.maxTokensPerSlice() * cfg_.geometry.numPackages,
              "context exceeds device slice capacity");
    return *cache;
}

KvCache &
DrexDevice::context(uint32_t user, uint32_t layer, uint32_t kv_head)
{
    std::lock_guard<std::mutex> lock(contextsMu_);
    auto it = contexts_.find(ContextKey{user, layer, kv_head});
    LS_ASSERT(it != contexts_.end(), "no context stored for user ", user,
              " layer ", layer, " head ", kv_head);
    return it->second;
}

bool
DrexDevice::hasContext(uint32_t user, uint32_t layer,
                       uint32_t kv_head) const
{
    std::lock_guard<std::mutex> lock(contextsMu_);
    return contexts_.count(ContextKey{user, layer, kv_head}) > 0;
}

} // namespace longsight
