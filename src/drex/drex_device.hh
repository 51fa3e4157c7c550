/**
 * @file
 * The complete DReX device (§7, Figure 5): eight PIM-enabled LPDDR5X
 * packages (each with a per-bank PFU array and one NMA) fronted by
 * the extended DCC. The device supports two operating modes:
 *
 *  - *Functional*: the GPU-side system writes real keys/values into
 *    per-(user, layer, head) stores; offloads then produce top-k
 *    results bit-identical to the software LongSightAttn reference.
 *    Used by tests, examples, and the algorithm benches.
 *  - *Timing-only*: no data is stored; survivor counts follow a
 *    modelled filter fraction (the paper's measured 20x average,
 *    §8.2). Used for million-token performance sweeps.
 *
 * Power/area constants from §9.4 are exposed for the power bench.
 */

#ifndef LONGSIGHT_DREX_DREX_DEVICE_HH
#define LONGSIGHT_DREX_DREX_DEVICE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/kv_cache.hh"
#include "dram/package.hh"
#include "drex/dcc.hh"
#include "drex/layout.hh"
#include "drex/nma.hh"

namespace longsight {

/**
 * Top-level DReX configuration.
 */
struct DrexConfig
{
    DrexGeometry geometry;
    LpddrTimings timings;
    NmaConfig nma;
    DccConfig dcc;
    uint32_t numKvHeads = 8;
    uint32_t numLayers = 32;
    uint32_t headDim = 128;
};

/**
 * §9.4 power and area figures (per component).
 */
struct DrexPowerArea
{
    double packagePeakWatts = 18.7;  //!< per LPDDR5X package
    double nmaPeakWatts = 1.072;     //!< per NMA (16 nm)
    double nmaAreaMm2 = 15.1;        //!< per NMA
    double pfuDieAreaOverhead = 0.067; //!< fraction of DRAM die area

    /** Total device peak power: 8 packages + 8 NMAs ≈ 158.2 W. */
    double totalPeakWatts(const DrexGeometry &g) const
    {
        return g.numPackages * (packagePeakWatts + nmaPeakWatts);
    }
};

/**
 * The compute-enabled CXL memory expander.
 */
class DrexDevice
{
  public:
    explicit DrexDevice(const DrexConfig &cfg);

    const DrexConfig &config() const { return cfg_; }
    const DataLayout &layout() const { return layout_; }
    Dcc &dcc() { return *dcc_; }
    DramPackage &package(uint32_t i);
    Nma &nma(uint32_t i);

    // --- Functional-mode context storage -----------------------------

    /**
     * Store (append) keys/values for (user, layer, head); models the
     * GPU's bulk Key/Key-Sign/Value Object writes. Returns the store
     * used, so callers can install ITQ rotations. Safe to call
     * concurrently for distinct (user, layer, head) keys — only the
     * store lookup serializes; the bulk copy runs outside the lock.
     */
    KvCache &writeContext(uint32_t user, uint32_t layer, uint32_t kv_head,
                          const Matrix &keys, const Matrix &values);

    /** Lookup a stored context (asserts it exists). */
    KvCache &context(uint32_t user, uint32_t layer, uint32_t kv_head);
    bool hasContext(uint32_t user, uint32_t layer, uint32_t kv_head) const;

    // --- Request path -------------------------------------------------

    /** Forward to the DCC queue. */
    void submit(AttentionRequest request) { dcc_->submit(std::move(request)); }

    /** Drain the DCC queue. */
    std::vector<AttentionResponse> processAll() { return dcc_->processAll(); }

    static DrexPowerArea powerArea() { return DrexPowerArea{}; }

  private:
    using ContextKey = std::tuple<uint32_t, uint32_t, uint32_t>;

    DrexConfig cfg_;
    DataLayout layout_;
    std::vector<DramPackage> packages_;
    std::vector<Nma> nmas_;
    std::unique_ptr<Dcc> dcc_;
    // Guards contexts_ map structure (not the KvCaches inside it;
    // node references stay stable across inserts).
    mutable std::mutex contextsMu_;
    std::map<ContextKey, KvCache> contexts_;
};

} // namespace longsight

#endif // LONGSIGHT_DREX_DREX_DEVICE_HH
