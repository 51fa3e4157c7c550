/**
 * @file
 * Transformer model shape descriptions. Encodes Table 1 of the paper
 * (Llama-3-1B and Llama-3-8B, both GQA with 32 query / 8 KV heads)
 * plus the derived byte-count helpers the performance models need
 * (KV-cache footprint per token, weight footprint, FLOP counts for
 * QKV/attention/FFN at decode time).
 */

#ifndef LONGSIGHT_MODEL_MODEL_CONFIG_HH
#define LONGSIGHT_MODEL_MODEL_CONFIG_HH

#include <cstdint>
#include <string>

namespace longsight {

/**
 * Static shape of a decoder-only transformer (Table 1).
 */
struct ModelConfig
{
    std::string name;
    uint32_t numLayers;
    uint32_t numQueryHeads;
    uint32_t numKvHeads;
    uint32_t headDim;
    uint32_t hiddenDim;   //!< model (embedding) dimension
    uint32_t ffnDim;      //!< intermediate dimension of the gated FFN
    uint32_t vocabSize;
    uint32_t bytesPerValue = 2; //!< BF16 activations and weights

    /** Queries sharing one KV head under GQA. */
    uint32_t groupSize() const { return numQueryHeads / numKvHeads; }

    /** KV-cache bytes appended per token across all layers. */
    uint64_t kvBytesPerToken() const;

    /** Total parameter bytes (projections + FFN + embeddings). */
    uint64_t weightBytes() const;

    /** Decode-step FLOPs excluding attention over context. */
    uint64_t decodeFlopsPerTokenNoAttn() const;

    /**
     * Decode-step attention FLOPs for one user at a context length
     * (QK^T + SV across all layers and query heads).
     */
    uint64_t attentionFlopsPerToken(uint64_t context_len) const;

    /** Number of independent KV databases per user (layers x KV heads). */
    uint32_t kvDatabasesPerUser() const { return numLayers * numKvHeads; }

    /** Llama-3.2-1B shape per Table 1 (head dim 64, 16 layers). */
    static ModelConfig llama3_1b();

    /** Llama-3-8B shape per Table 1 (head dim 128, 32 layers). */
    static ModelConfig llama3_8b();
};

} // namespace longsight

#endif // LONGSIGHT_MODEL_MODEL_CONFIG_HH
