/**
 * @file
 * A numerically real decoder-only transformer stack with procedural
 * (seeded, fan-in-scaled) weights, in which the attention module is
 * swappable — exact dense attention or LongSightAttn — mirroring how
 * the paper's artifact replaces the HuggingFace Llama attention module
 * (§A.1). RMSNorm, GQA QKV projections, RoPE, output projection, and
 * a SiLU-gated FFN with residual connections are all computed for
 * real, so model-level properties (the hybrid path degenerating to
 * the dense model bit-closely at generous settings; bounded output
 * divergence under filtering) can be tested end to end rather than
 * per attention call.
 */

#ifndef LONGSIGHT_MODEL_DECODER_HH
#define LONGSIGHT_MODEL_DECODER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/kv_cache.hh"
#include "core/multi_head.hh"
#include "model/rope.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace longsight {

/**
 * Shape of the synthetic decoder (a scaled-down Llama-3 block).
 */
struct DecoderConfig
{
    uint32_t hiddenDim = 256;
    uint32_t numLayers = 4;
    uint32_t numQueryHeads = 8;
    uint32_t numKvHeads = 2;
    uint32_t headDim = 32;
    uint32_t ffnDim = 512;
    double ropeTheta = 500000.0;
    uint64_t seed = 1;
};

/**
 * Which attention the stack runs.
 */
enum class AttentionMode
{
    Dense,     //!< exact softmax over the full context
    LongSight, //!< hybrid window + SCF/top-k sparse path
};

/**
 * One decoder layer: norms, projections, attention, FFN, residuals.
 */
class DecoderLayer
{
  public:
    DecoderLayer(const DecoderConfig &cfg, Rng &rng);

    /**
     * Forward one token at `position`; appends this token's K/V to
     * `caches` (one per KV head) and attends over them.
     *
     * @param hybrid LongSight module for AttentionMode::LongSight;
     *        ignored in dense mode
     */
    std::vector<float> forward(const std::vector<float> &x,
                               uint64_t position,
                               std::vector<KvCache> &caches,
                               AttentionMode mode,
                               const MultiHeadLongSight *hybrid) const;

  private:
    /** y = W x for a (rows x cols) weight, x length cols. */
    std::vector<float> project(const Matrix &w,
                               const std::vector<float> &x) const;

    DecoderConfig cfg_;
    Rope rope_;
    Matrix wq_; //!< (QH*d) x hidden
    Matrix wk_; //!< (KVH*d) x hidden
    Matrix wv_; //!< (KVH*d) x hidden
    Matrix wo_; //!< hidden x (QH*d)
    Matrix wGate_; //!< ffn x hidden
    Matrix wUp_;   //!< ffn x hidden
    Matrix wDown_; //!< hidden x ffn
};

/**
 * The full stack plus per-layer KV caches for one user.
 */
class SyntheticDecoder
{
  public:
    SyntheticDecoder(const DecoderConfig &cfg, AttentionMode mode,
                     const LongSightConfig &hybrid = LongSightConfig{});

    const DecoderConfig &config() const { return cfg_; }
    AttentionMode mode() const { return mode_; }
    size_t contextLength() const;

    /** Forward one token embedding through all layers. */
    std::vector<float> step(const std::vector<float> &embedding);

    /** A layer's KV caches, one per KV head. */
    const std::vector<KvCache> &layerCaches(uint32_t layer) const;

  private:
    DecoderConfig cfg_;
    AttentionMode mode_;
    std::vector<DecoderLayer> layers_;
    std::vector<std::vector<KvCache>> caches_; //!< [layer][kv head]
    std::unique_ptr<MultiHeadLongSight> hybrid_;
    uint64_t position_ = 0;
};

/** RMS normalization (unit gain), the Llama pre-norm. */
std::vector<float> rmsNorm(const std::vector<float> &x);

} // namespace longsight

#endif // LONGSIGHT_MODEL_DECODER_HH
