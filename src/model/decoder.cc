#include "model/decoder.hh"

#include <cmath>

#include "core/attention.hh"
#include "tensor/linalg.hh"
#include "util/logging.hh"

namespace longsight {

namespace {

/** Fan-in-scaled Gaussian weight matrix (rows x cols). */
Matrix
randomWeights(size_t rows, size_t cols, Rng &rng)
{
    Matrix w(rows, cols, rng.gaussianVec(rows * cols));
    const float scale = 1.0f / std::sqrt(static_cast<float>(cols));
    for (size_t i = 0; i < w.size(); ++i)
        w.data()[i] *= scale;
    return w;
}

float
silu(float x)
{
    return x / (1.0f + std::exp(-x));
}

} // namespace

std::vector<float>
rmsNorm(const std::vector<float> &x)
{
    double ms = 0.0;
    for (float v : x)
        ms += static_cast<double>(v) * v;
    ms = std::sqrt(ms / static_cast<double>(x.size()) + 1e-6);
    std::vector<float> out(x.size());
    const float inv = static_cast<float>(1.0 / ms);
    for (size_t i = 0; i < x.size(); ++i)
        out[i] = x[i] * inv;
    return out;
}

DecoderLayer::DecoderLayer(const DecoderConfig &cfg, Rng &rng)
    : cfg_(cfg), rope_(cfg.headDim, cfg.ropeTheta),
      wq_(randomWeights(cfg.numQueryHeads * cfg.headDim, cfg.hiddenDim,
                        rng)),
      wk_(randomWeights(cfg.numKvHeads * cfg.headDim, cfg.hiddenDim, rng)),
      wv_(randomWeights(cfg.numKvHeads * cfg.headDim, cfg.hiddenDim, rng)),
      wo_(randomWeights(cfg.hiddenDim, cfg.numQueryHeads * cfg.headDim,
                        rng)),
      wGate_(randomWeights(cfg.ffnDim, cfg.hiddenDim, rng)),
      wUp_(randomWeights(cfg.ffnDim, cfg.hiddenDim, rng)),
      wDown_(randomWeights(cfg.hiddenDim, cfg.ffnDim, rng))
{
    LS_ASSERT(cfg.numQueryHeads % cfg.numKvHeads == 0,
              "GQA grouping must divide evenly");
}

std::vector<float>
DecoderLayer::project(const Matrix &w, const std::vector<float> &x) const
{
    return gemv(w, x);
}

std::vector<float>
DecoderLayer::forward(const std::vector<float> &x, uint64_t position,
                      std::vector<KvCache> &caches, AttentionMode mode,
                      const MultiHeadLongSight *hybrid) const
{
    LS_ASSERT(x.size() == cfg_.hiddenDim, "hidden dim mismatch");
    LS_ASSERT(caches.size() == cfg_.numKvHeads, "cache count mismatch");

    const uint32_t d = cfg_.headDim;
    const std::vector<float> h = rmsNorm(x);

    // QKV projections, split into heads, RoPE on Q and K.
    const std::vector<float> q_flat = project(wq_, h);
    const std::vector<float> k_flat = project(wk_, h);
    const std::vector<float> v_flat = project(wv_, h);

    Matrix queries(cfg_.numQueryHeads, d);
    for (uint32_t qh = 0; qh < cfg_.numQueryHeads; ++qh) {
        std::vector<float> qv(q_flat.begin() + qh * d,
                              q_flat.begin() + (qh + 1) * d);
        rope_.apply(qv.data(), position);
        queries.setRow(qh, qv.data());
    }
    for (uint32_t kh = 0; kh < cfg_.numKvHeads; ++kh) {
        std::vector<float> kv(k_flat.begin() + kh * d,
                              k_flat.begin() + (kh + 1) * d);
        rope_.apply(kv.data(), position);
        const std::vector<float> vv(v_flat.begin() + kh * d,
                                    v_flat.begin() + (kh + 1) * d);
        caches[kh].append(kv, vv);
    }

    // Attention per query head: dense reference or the hybrid module.
    std::vector<float> attn_out(cfg_.numQueryHeads * d);
    if (mode == AttentionMode::LongSight) {
        LS_ASSERT(hybrid != nullptr, "LongSight mode needs the module");
        const LayerAttentionResult r = hybrid->compute(queries, caches);
        for (uint32_t qh = 0; qh < cfg_.numQueryHeads; ++qh)
            for (uint32_t i = 0; i < d; ++i)
                attn_out[qh * d + i] = r.outputs(qh, i);
    } else {
        const float scale = 1.0f / std::sqrt(static_cast<float>(d));
        const uint32_t group = cfg_.numQueryHeads / cfg_.numKvHeads;
        for (uint32_t qh = 0; qh < cfg_.numQueryHeads; ++qh) {
            const KvCache &cache = caches[qh / group];
            const AttentionResult r = denseAttention(
                queries.row(qh), cache.keysStorage(),
                cache.valuesStorage(), scale);
            for (uint32_t i = 0; i < d; ++i)
                attn_out[qh * d + i] = r.output[i];
        }
    }

    // Output projection + residual.
    std::vector<float> y = project(wo_, attn_out);
    for (size_t i = 0; i < y.size(); ++i)
        y[i] += x[i];

    // SiLU-gated FFN + residual.
    const std::vector<float> h2 = rmsNorm(y);
    const std::vector<float> gate = project(wGate_, h2);
    const std::vector<float> up = project(wUp_, h2);
    std::vector<float> act(cfg_.ffnDim);
    for (uint32_t i = 0; i < cfg_.ffnDim; ++i)
        act[i] = silu(gate[i]) * up[i];
    const std::vector<float> down = project(wDown_, act);
    for (size_t i = 0; i < y.size(); ++i)
        y[i] += down[i];
    return y;
}

SyntheticDecoder::SyntheticDecoder(const DecoderConfig &cfg,
                                   AttentionMode mode,
                                   const LongSightConfig &hybrid)
    : cfg_(cfg), mode_(mode)
{
    Rng rng(cfg.seed);
    layers_.reserve(cfg.numLayers);
    caches_.resize(cfg.numLayers);
    for (uint32_t l = 0; l < cfg.numLayers; ++l) {
        layers_.emplace_back(cfg, rng);
        for (uint32_t h = 0; h < cfg.numKvHeads; ++h)
            caches_[l].emplace_back(cfg.headDim);
    }
    if (mode == AttentionMode::LongSight)
        hybrid_ = std::make_unique<MultiHeadLongSight>(
            hybrid, cfg.numQueryHeads, cfg.numKvHeads, cfg.headDim);
}

size_t
SyntheticDecoder::contextLength() const
{
    return caches_.front().front().size();
}

std::vector<float>
SyntheticDecoder::step(const std::vector<float> &embedding)
{
    LS_ASSERT(embedding.size() == cfg_.hiddenDim,
              "embedding dim mismatch");
    std::vector<float> x = embedding;
    for (uint32_t l = 0; l < cfg_.numLayers; ++l)
        x = layers_[l].forward(x, position_, caches_[l], mode_,
                               hybrid_.get());
    ++position_;
    return x;
}

std::vector<KvCache> &
SyntheticDecoder::layerCaches(uint32_t layer)
{
    LS_ASSERT(layer < caches_.size(), "layer out of range");
    return caches_[layer];
}

MultiHeadLongSight &
SyntheticDecoder::hybridAttention()
{
    LS_ASSERT(hybrid_ != nullptr, "not in LongSight mode");
    return *hybrid_;
}

} // namespace longsight
