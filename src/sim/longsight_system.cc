#include "sim/longsight_system.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace longsight {

LongSightSystem::LongSightSystem(const LongSightSystemConfig &cfg,
                                 const ModelConfig &model)
    : cfg_(cfg), model_(model), gpuModel_(cfg.gpu, model)
{
    LS_ASSERT(cfg.filterRatio >= 1.0, "filter ratio must be >= 1");
}

uint64_t
LongSightSystem::sparseTokens(uint64_t context_len) const
{
    const uint64_t dense = cfg_.windowSize + cfg_.sinkTokens;
    return context_len > dense ? context_len - dense : 0;
}

double
LongSightSystem::survivorFraction(uint64_t region_tokens) const
{
    if (region_tokens == 0)
        return 0.0;
    // Fig-3 metric: ratio = 2*raw / (survivors + selected), so the
    // survivor count consistent with the configured average ratio is
    // 2*raw/ratio - k (floored at k: at least the selected keys were
    // scored).
    const double raw = static_cast<double>(region_tokens);
    const double k = std::min<double>(cfg_.topK, raw);
    const double survivors =
        std::max(2.0 * raw / cfg_.filterRatio - k, k);
    return std::min(survivors / raw, 1.0);
}

uint64_t
LongSightSystem::descriptorBytes() const
{
    // UID + layer + control, plus one query vector per query head.
    return cfg_.cxl.descriptorBytes +
        static_cast<uint64_t>(model_.numQueryHeads) * model_.headDim *
            model_.bytesPerValue;
}

OffloadObservation
LongSightSystem::observeOffload(uint64_t context_len) const
{
    const uint64_t region = sparseTokens(context_len);
    LS_ASSERT(region > 0, "no sparse region at context ", context_len);

    // A fresh timing-only device: steady-state offloads are
    // statistically identical, so one detailed simulation per
    // configuration suffices (see file header).
    DrexConfig dc;
    dc.geometry = cfg_.geometry;
    dc.timings = cfg_.timings;
    dc.nma = cfg_.nma;
    dc.dcc = cfg_.dcc;
    dc.numKvHeads = model_.numKvHeads;
    dc.numLayers = model_.numLayers;
    dc.headDim = model_.headDim;
    DrexDevice device(dc);

    OffloadSpec spec;
    spec.user = 0;
    spec.layer = 0;
    spec.kvHead = 0;
    spec.sparseBegin = cfg_.sinkTokens;
    spec.sparseEnd = cfg_.sinkTokens + region;
    spec.numQueries = model_.groupSize();
    spec.k = cfg_.topK;
    spec.survivorFraction = survivorFraction(region);

    OffloadObservation obs;
    obs.result = device.nma(0).process(0, spec);

    CxlLink link(cfg_.cxl);
    obs.submitTime =
        link.mmioWrite(0, static_cast<uint32_t>(descriptorBytes())) - 0;
    obs.cxlValueTime = link.bulkRead(obs.submitTime,
                                     obs.result.valueBytes) -
        obs.submitTime;
    return obs;
}

uint32_t
LongSightSystem::maxUsers(uint64_t context_len) const
{
    // DReX capacity with sign overhead.
    DataLayout layout(cfg_.geometry, cfg_.timings, model_.numKvHeads,
                      model_.numLayers, model_.headDim);
    const uint64_t device_bytes =
        static_cast<uint64_t>(cfg_.geometry.totalChannels()) *
        cfg_.timings.channelCapacity;
    const uint64_t sparse = sparseTokens(context_len);
    uint64_t by_drex =
        static_cast<uint64_t>(cfg_.dcc.queueDepth) * cfg_.numDrexDevices;
    if (sparse > 0) {
        const uint64_t per_user = layout.bytesPerToken() * sparse;
        by_drex = std::min<uint64_t>(
            by_drex,
            device_bytes * cfg_.numDrexDevices / per_user);
    }

    // GPU holds sinks + window + staging buffer per user.
    const uint64_t gpu_tokens = std::min<uint64_t>(
        context_len,
        cfg_.sinkTokens + cfg_.windowSize + cfg_.stagingTokens);
    const uint32_t by_gpu = gpuModel_.maxUsersDense(gpu_tokens);

    return static_cast<uint32_t>(
        std::min<uint64_t>(by_drex, by_gpu));
}

ServingResult
LongSightSystem::decode(uint64_t context_len, uint32_t users) const
{
    ServingResult r;
    r.users = users;
    if (users == 0 || users > maxUsers(context_len)) {
        r.limitedBy = "DReX capacity / DCC queue / GPU window footprint";
        return r;
    }
    r.feasible = true;

    const uint64_t region = sparseTokens(context_len);
    const uint64_t dense_tokens =
        std::min<uint64_t>(context_len, cfg_.windowSize + cfg_.sinkTokens);

    // GPU-side per-step components.
    const Tick non_attn = gpuModel_.decodeNonAttentionTime(users);
    const Tick itq = gpuModel_.itqRotationTime(users);
    r.breakdown.gpuNonAttention = non_attn;
    r.breakdown.itq = itq;

    const Tick gpu_window =
        gpuModel_.windowAttentionTime(dense_tokens, users);

    Tick layer_attention;
    if (region == 0) {
        // Context fits in the dense part: no offload at all.
        layer_attention = gpu_window;
        r.breakdown.gpuWindowExposed = gpu_window * model_.numLayers;
    } else {
        const OffloadObservation obs = observeOffload(context_len);
        const Tick service =
            obs.result.doneTick - obs.result.startTick;

        // Users spread evenly across the attached DReX devices; each
        // device has its own CXL link and NMA pool.
        const uint32_t users_per_device =
            (users + cfg_.numDrexDevices - 1) / cfg_.numDrexDevices;

        // Descriptor writes for this device's users, serialized on
        // its link.
        const Tick submit = obs.submitTime +
            (users_per_device - 1) * transferTime(descriptorBytes(),
                                                  cfg_.cxl.bandwidthGBps);

        // Per NMA: one offload per resident user per layer (heads
        // spread across the 8 packages of the device).
        const Tick drex_busy =
            static_cast<Tick>(users_per_device) * service;

        // Value payloads share the device's link; they overlap NMA
        // compute of later users (§9.2), so the sparse path is
        // bounded by the slower of the two pipelines.
        const uint64_t resp_bytes = obs.result.valueBytes *
            model_.numKvHeads * static_cast<uint64_t>(users_per_device);
        const Tick cxl_resp =
            transferTime(resp_bytes, cfg_.cxl.bandwidthGBps) +
            cfg_.cxl.accessLatency;

        const Tick poll = 2 * cfg_.cxl.accessLatency;
        const Tick sparse_path =
            submit + std::max(drex_busy, cxl_resp) + poll;

        layer_attention = std::max(gpu_window, sparse_path);
        if (sparse_path >= gpu_window) {
            // DReX side exposed; window attention fully hidden.
            r.breakdown.submit += submit * model_.numLayers;
            r.breakdown.poll += poll * model_.numLayers;
            r.breakdown.drexExposed +=
                (sparse_path - submit - poll) * model_.numLayers;
        } else {
            r.breakdown.gpuWindowExposed += gpu_window * model_.numLayers;
        }
    }

    // Combined softmax + hybrid SV per layer.
    const uint64_t candidates = dense_tokens +
        (region > 0 ? std::min<uint64_t>(cfg_.topK, region) : 0);
    const Tick softmax = gpuModel_.softmaxCombineTime(candidates, users);
    r.breakdown.softmax = softmax * model_.numLayers;

    r.stepTime = non_attn + itq +
        model_.numLayers * (layer_attention + softmax);
    r.finalize();
    return r;
}

} // namespace longsight
