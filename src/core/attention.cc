#include "core/attention.hh"

#include <algorithm>
#include <cmath>

#include "core/kv_cache.hh"
#include "tensor/kernels.hh"
#include "tensor/linalg.hh"
#include "tensor/softmax.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {

std::vector<float>
attentionScores(const float *q, const Matrix &keys, size_t begin, size_t end,
                float scale)
{
    LS_ASSERT(begin <= end && end <= keys.rows(),
              "score range [", begin, ",", end, ") out of ", keys.rows());
    std::vector<float> scores(end - begin);
    batchDotScaleRange(q, keys, begin, end, scale, scores.data());
    return scores;
}

std::vector<float>
attentionScoresAt(const float *q, const Matrix &keys,
                  const std::vector<uint32_t> &indices, float scale)
{
    std::vector<float> scores(indices.size());
    batchDotScaleAt(q, keys, indices.data(), indices.size(), scale,
                    scores.data());
    return scores;
}

AttentionResult
denseAttention(const float *q, const Matrix &keys, const Matrix &values,
               float scale)
{
    AttentionResult r;
    r.probs.resize(keys.rows());
    r.output.resize(values.cols());
    denseAttentionInto(q, keys, values, scale, r.probs.data(),
                       r.output.data());
    return r;
}

AttentionResult
subsetAttention(const float *q, const Matrix &keys, const Matrix &values,
                const std::vector<uint32_t> &indices, float scale)
{
    AttentionResult r;
    r.probs.resize(indices.size());
    r.output.resize(values.cols());
    subsetAttentionInto(q, keys, values, indices.data(), indices.size(),
                        scale, r.probs.data(), r.output.data());
    return r;
}

void
denseAttentionInto(const float *q, const Matrix &keys, const Matrix &values,
                   float scale, float *probs, float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    batchDotScaleRange(q, keys, 0, keys.rows(), scale, probs);
    softmaxInPlace(probs, keys.rows());
    std::fill_n(out, values.cols(), 0.0f);
    batchWeightedSum(probs, values, nullptr, 0, keys.rows(), out);
}

void
subsetAttentionInto(const float *q, const Matrix &keys, const Matrix &values,
                    const uint32_t *indices, size_t count, float scale,
                    float *probs, float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    batchDotScaleAt(q, keys, indices, count, scale, probs);
    softmaxInPlace(probs, count);
    weightedValueSumInto(values, indices, count, probs, out);
}

void
denseAttentionInto(const float *q, const KvCache &cache, float scale,
                   float *probs, float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t n = cache.size();
    const Matrix &values = cache.valuesStorage();
    // Accumulate span by span in ascending logical order (a flat cache
    // is one identity span): each token's probs-weighted add happens
    // in exactly the sequence the Matrix form uses, so the result is
    // bit-identical for any block size.
    denseProbsInto(q, cache.keysStorage().cols(), 1, cache, scale, probs,
                   n);
    std::fill_n(out, values.cols(), 0.0f);
    for (size_t at = 0; at < n;) {
        const ScanSpan sp = cache.spanAt(at, n);
        batchWeightedSum(probs + sp.logicalBase, values, nullptr,
                         sp.physBegin, sp.count, out);
        at += sp.count;
    }
}

void
denseProbsInto(const float *queries, size_t query_stride,
               size_t num_queries, const KvCache &cache, float scale,
               float *probs, size_t probs_stride)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t n = cache.size();
    LS_ASSERT(probs_stride >= n, "probs stride ", probs_stride,
              " below context ", n);
    const Matrix &keys = cache.keysStorage();
    for (size_t at = 0; at < n;) {
        const ScanSpan sp = cache.spanAt(at, n);
        batchDotScaleMulti(queries, query_stride, num_queries, keys,
                           nullptr, sp.physBegin, sp.count, scale,
                           probs + sp.logicalBase, probs_stride);
        at += sp.count;
    }
    for (size_t g = 0; g < num_queries; ++g)
        softmaxInPlace(probs + g * probs_stride, n);
}

void
subsetAttentionInto(const float *q, const KvCache &cache,
                    const uint32_t *indices, size_t count, float scale,
                    float *probs, float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const Matrix &keys = cache.keysStorage();
    const Matrix &values = cache.valuesStorage();
    // Logical -> physical translation (the identity when flat) through
    // a bounded stack chunk keeps the gather path allocation-free;
    // scores, softmax and the weighted sum all run in the caller's
    // index order regardless of where the chunk boundaries fall.
    constexpr size_t kChunk = 512;
    uint32_t phys[kChunk];
    for (size_t at = 0; at < count; at += kChunk) {
        const size_t m = std::min(kChunk, count - at);
        cache.mapToPhysical(indices + at, m, phys);
        batchDotScaleAt(q, keys, phys, m, scale, probs + at);
    }
    softmaxInPlace(probs, count);
    std::fill_n(out, values.cols(), 0.0f);
    for (size_t at = 0; at < count; at += kChunk) {
        const size_t m = std::min(kChunk, count - at);
        cache.mapToPhysical(indices + at, m, phys);
        batchWeightedSum(probs + at, values, phys, 0, m, out);
    }
}

void
weightedValueSumInto(const Matrix &values, const uint32_t *indices,
                     size_t count, const float *probs, float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    std::fill_n(out, values.cols(), 0.0f);
    batchWeightedSum(probs, values, indices, 0, count, out);
}

} // namespace longsight
