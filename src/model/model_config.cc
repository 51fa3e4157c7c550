#include "model/model_config.hh"

namespace longsight {

uint64_t
ModelConfig::kvBytesPerToken() const
{
    // K and V, one headDim vector each per KV head per layer.
    return uint64_t{2} * numKvHeads * headDim * bytesPerValue * numLayers;
}

uint64_t
ModelConfig::weightBytes() const
{
    const uint64_t d = hiddenDim;
    const uint64_t qkv = d * (numQueryHeads * headDim) +
        2 * d * (numKvHeads * headDim);
    const uint64_t out_proj = (numQueryHeads * headDim) * d;
    const uint64_t ffn = 3 * d * ffnDim; // gate, up, down projections
    const uint64_t per_layer = qkv + out_proj + ffn;
    const uint64_t embed = uint64_t{2} * vocabSize * d; // in + lm head
    return (per_layer * numLayers + embed) * bytesPerValue;
}

uint64_t
ModelConfig::decodeFlopsPerTokenNoAttn() const
{
    const uint64_t d = hiddenDim;
    const uint64_t qkv = 2 * (d * (numQueryHeads * headDim) +
                              2 * d * (numKvHeads * headDim));
    const uint64_t out_proj = 2 * (numQueryHeads * headDim) * d;
    const uint64_t ffn = 2 * 3 * d * ffnDim;
    const uint64_t lm_head = 2 * static_cast<uint64_t>(vocabSize) * d;
    return (qkv + out_proj + ffn) * numLayers + lm_head;
}

uint64_t
ModelConfig::attentionFlopsPerToken(uint64_t context_len) const
{
    // Per query head: QK^T (2*d*L) + SV (2*d*L).
    const uint64_t per_head = 4 * uint64_t{headDim} * context_len;
    return per_head * numQueryHeads * numLayers;
}

ModelConfig
ModelConfig::llama3_1b()
{
    ModelConfig c;
    c.name = "Llama-3-1B";
    c.numLayers = 16;
    c.numQueryHeads = 32;
    c.numKvHeads = 8;
    c.headDim = 64;
    c.hiddenDim = 2048;
    c.ffnDim = 8192;
    c.vocabSize = 128256;
    return c;
}

ModelConfig
ModelConfig::llama3_8b()
{
    ModelConfig c;
    c.name = "Llama-3-8B";
    c.numLayers = 32;
    c.numQueryHeads = 32;
    c.numKvHeads = 8;
    c.headDim = 128;
    c.hiddenDim = 4096;
    c.ffnDim = 14336;
    c.vocabSize = 128256;
    return c;
}

} // namespace longsight
