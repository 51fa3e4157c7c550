/**
 * @file
 * Exact attention primitives: full dense attention (the correctness
 * and quality baseline for every experiment), attention restricted to
 * an arbitrary token subset (the hybrid path's combined softmax), and
 * plain score evaluation. All math is done on post-RoPE vectors with
 * double-precision accumulation so the software and modelled-hardware
 * paths can be compared bit-closely.
 */

#ifndef LONGSIGHT_CORE_ATTENTION_HH
#define LONGSIGHT_CORE_ATTENTION_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace longsight {

class KvCache;

/**
 * Result of one attention evaluation for a single query.
 */
struct AttentionResult
{
    std::vector<float> output; //!< headDim-long weighted value sum
    std::vector<float> probs;  //!< softmax weight per attended token
};

/** q . K[i] * scale for rows [begin, end). */
std::vector<float> attentionScores(const float *q, const Matrix &keys,
                                   size_t begin, size_t end, float scale);

/** q . K[idx] * scale for an arbitrary index set. */
std::vector<float> attentionScoresAt(const float *q, const Matrix &keys,
                                     const std::vector<uint32_t> &indices,
                                     float scale);

/**
 * Full dense attention of one query over rows [0, n) of keys/values.
 * probs[i] corresponds to token i.
 */
AttentionResult denseAttention(const float *q, const Matrix &keys,
                               const Matrix &values, float scale);

/**
 * Attention restricted to `indices` (renormalized softmax over the
 * subset). probs[j] corresponds to indices[j].
 */
AttentionResult subsetAttention(const float *q, const Matrix &keys,
                                const Matrix &values,
                                const std::vector<uint32_t> &indices,
                                float scale);

// Raw-span flavours for the zero-allocation decode hot path: identical
// math, but every buffer is caller storage (typically a scratch-arena
// span), so a steady-state call performs no heap allocation.

/**
 * denseAttention into caller storage: probs must hold keys.rows()
 * floats and out values.cols() floats; both are overwritten.
 */
void denseAttentionInto(const float *q, const Matrix &keys,
                        const Matrix &values, float scale, float *probs,
                        float *out);

/**
 * subsetAttention into caller storage: probs must hold `count` floats
 * (probs[j] corresponds to indices[j]) and out values.cols() floats.
 */
void subsetAttentionInto(const float *q, const Matrix &keys,
                         const Matrix &values, const uint32_t *indices,
                         size_t count, float scale, float *probs,
                         float *out);

/** Weighted value sum into caller storage (out overwritten):
 *  out = sum_j probs[j] * values[indices[j]]. */
void weightedValueSumInto(const Matrix &values, const uint32_t *indices,
                          size_t count, const float *probs, float *out);

// Cache-aware flavours: identical math against a KvCache in either
// storage mode. Both walk the cache's row map — span by span (dense)
// or translating logical token ids to physical rows in bounded stack
// chunks (subset) — where a flat cache is one identity span, so both
// stay allocation-free and bit-identical to the Matrix forms above.

/**
 * denseAttentionInto over tokens [0, cache.size()): probs must hold
 * cache.size() floats (probs[i] is token i) and out headDim floats.
 */
void denseAttentionInto(const float *q, const KvCache &cache, float scale,
                        float *probs, float *out);

/**
 * The dense softmax alone, for a group of queries over tokens [0,
 * cache.size()): query g starts at queries + g * query_stride and its
 * probabilities land at probs + g * probs_stride (probs_stride >=
 * cache.size()). One pass per span scores each key against the whole
 * group; every row is bit-identical to a one-query denseAttentionInto's
 * probs.
 */
void denseProbsInto(const float *queries, size_t query_stride,
                    size_t num_queries, const KvCache &cache, float scale,
                    float *probs, size_t probs_stride);

/**
 * subsetAttentionInto over logical token ids `indices` (renormalized
 * softmax over the subset; probs[j] corresponds to indices[j]).
 */
void subsetAttentionInto(const float *q, const KvCache &cache,
                         const uint32_t *indices, size_t count,
                         float scale, float *probs, float *out);

} // namespace longsight

#endif // LONGSIGHT_CORE_ATTENTION_HH
