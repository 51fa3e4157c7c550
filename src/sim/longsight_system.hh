/**
 * @file
 * End-to-end LongSight serving model (§6, Fig. 2b): one GPU plus one
 * DReX device over CXL. Each decode step runs, per layer:
 *
 *   1. the GPU writes one request descriptor per user (MMIO over CXL)
 *      carrying the layer's query vectors;
 *   2. DReX executes the per-head offloads — all 8 KV heads in
 *      parallel on the 8 package NMAs, users serialized per NMA —
 *      while the GPU computes dense window (+sink) attention;
 *   3. value payloads stream back over CXL (overlapped with NMA
 *      compute for later users);
 *   4. the GPU polls completion, then performs the combined softmax
 *      and hybrid SV accumulation.
 *
 * The per-offload latency is obtained from the detailed NMA + DRAM
 * model once per configuration (offloads of a steady-state decode
 * step are statistically identical), then composed across users,
 * heads, and layers — mirroring how the paper's own framework couples
 * DRAMSim3-level detail with real-system GPU numbers.
 */

#ifndef LONGSIGHT_SIM_LONGSIGHT_SYSTEM_HH
#define LONGSIGHT_SIM_LONGSIGHT_SYSTEM_HH

#include <cstdint>

#include "cxl/link.hh"
#include "drex/drex_device.hh"
#include "gpu/gpu_model.hh"
#include "model/model_config.hh"
#include "sim/serving.hh"

namespace longsight {

/**
 * Full-system configuration for LongSight serving.
 */
struct LongSightSystemConfig
{
    GpuConfig gpu;
    CxlConfig cxl;
    DrexGeometry geometry;
    LpddrTimings timings;
    NmaConfig nma;
    DccConfig dcc;

    uint32_t windowSize = 1024; //!< dense sliding window W (§8.1.3)
    uint32_t sinkTokens = 16;   //!< attention sinks (§8.1.3)
    uint32_t topK = 1024;       //!< k (§8.1.3)
    uint32_t stagingTokens = 128; //!< GPU-side bulk-update buffer (§6)

    /**
     * Average Fig-3 filter ratio used by the timing-only survivor
     * model (§8.2 fixes thresholds giving a 20x average).
     */
    double filterRatio = 20.0;

    /**
     * Number of DReX expanders attached to the GPU (each with its own
     * CXL link). The paper evaluates one; scaling out multiplies KV
     * capacity and NMA/link throughput while the GPU stays shared.
     */
    uint32_t numDrexDevices = 1;
};

/**
 * Detailed single-offload observation plus its CXL cost (Fig. 8).
 */
struct OffloadObservation
{
    OffloadResult result;
    Tick cxlValueTime = 0; //!< response payload transfer, one user
    Tick submitTime = 0;   //!< descriptor write, one user
};

/**
 * The GPU + DReX serving system.
 */
class LongSightSystem
{
  public:
    LongSightSystem(const LongSightSystemConfig &cfg,
                    const ModelConfig &model);

    const LongSightSystemConfig &config() const { return cfg_; }
    const ModelConfig &model() const { return model_; }

    /** Steady-state decode step for `users` at `context_len`. */
    ServingResult decode(uint64_t context_len, uint32_t users) const;

    /**
     * Users supported simultaneously: bounded by DReX capacity (with
     * sign-bit overhead), the DCC queue depth, and the GPU window
     * footprint.
     */
    uint32_t maxUsers(uint64_t context_len) const;

    /**
     * Run one (user, layer, head) offload through the detailed NMA +
     * DRAM + CXL models (timing-only survivor statistics).
     */
    OffloadObservation observeOffload(uint64_t context_len) const;

    /** Sparse-region token count at a context length. */
    uint64_t sparseTokens(uint64_t context_len) const;

    /** Survivor fraction implied by the configured filter ratio. */
    double survivorFraction(uint64_t region_tokens) const;

    /** Request descriptor payload: header + all query vectors. */
    uint64_t descriptorBytes() const;

  private:
    LongSightSystemConfig cfg_;
    ModelConfig model_;
    GpuModel gpuModel_;
};

} // namespace longsight

#endif // LONGSIGHT_SIM_LONGSIGHT_SYSTEM_HH
