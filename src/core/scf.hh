/**
 * @file
 * Sign-Concordance Filtering (SCF), the paper's §5 filtering stage.
 *
 * SCF(Q, K, TH) = (TH <= D - sum_i (SQ[i] XOR SK[i]))
 *
 * i.e. a key survives if the number of dimensions where its sign bit
 * matches the query's meets a threshold. Thresholds are assigned per
 * KV head (the granularity the paper found stable, §5.1). A threshold
 * of zero keeps every key; a threshold of D keeps only keys whose sign
 * pattern is identical to the query's.
 *
 * scfSelect() is the runtime's one sparse-region selector: SCF, then
 * survivor scoring and top-k, over a KvCache's logical token range.
 * Hybrid attention and the decode pipeline's software check of the
 * device (verification A) both call it.
 */

#ifndef LONGSIGHT_CORE_SCF_HH
#define LONGSIGHT_CORE_SCF_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"
#include "tensor/tensor.hh"
#include "tensor/topk_selector.hh"

namespace longsight {

class KvCache;
class ScratchFrame;

/**
 * Evaluate SCF for a single query/key pair.
 */
bool scfPasses(const SignBits &query, const SignBits &key, int threshold);

/**
 * Filter a contiguous range of keys: returns the indices (relative to
 * `begin`... offset by `base_index`) of keys that pass.
 *
 * @param query       sign bits of the query
 * @param keys        sign bits per key
 * @param threshold   per-KV-head SCF threshold
 * @param base_index  added to each surviving position (global indexing)
 */
std::vector<uint32_t> scfFilter(const SignBits &query,
                                const std::vector<SignBits> &keys,
                                int threshold, uint32_t base_index = 0);

/**
 * Batch flavour over a packed SignMatrix: filters every row with the
 * runtime-dispatched scan kernel. Survivor indices are row indices
 * offset by `base_index`; bit-identical to the vector<SignBits> path.
 */
std::vector<uint32_t> scfFilter(const SignBits &query,
                                const SignMatrix &keys, int threshold,
                                uint32_t base_index = 0);

/**
 * Filter directly from float rows (packs signs on the fly). Slower
 * path used by tests to cross-check the packed implementation.
 */
std::vector<uint32_t> scfFilterRows(const float *query, const Matrix &keys,
                                    size_t begin, size_t end, int threshold);

/**
 * SCF -> score -> top-k for a query group over the logical token range
 * [lo, hi) of one KV head's cache. Each query's signs are packed in
 * the cache's (ITQ-rotated) filter space and concordance-scanned
 * against the sign plane; survivors are scored against the
 * full-precision keys as (q . key) * scale, and the best k are kept.
 *
 * Query g's headDim vector is queries + g * query_stride. Its
 * selections land at selected + g * kcap (kcap >= min(k, hi - lo)) as
 * LOGICAL token ids sorted best-first (score descending, index
 * ascending on ties); num_selected[g] receives their count and
 * survivors[g] its SCF survivor count. Flat and paged caches run the
 * same span drivers, so selections are element-identical across
 * layouts, kernel backends and group sizes. On a paged cache the pass
 * credits the pool's SCF residency counters. Requires hi > lo and
 * num_queries > 0; working memory comes from `frame` only.
 */
void scfSelect(const float *queries, size_t query_stride,
               uint32_t num_queries, const KvCache &cache, size_t lo,
               size_t hi, int threshold, float scale, size_t k,
               ScratchFrame &frame, ScoredIndex *selected, size_t kcap,
               size_t *num_selected, size_t *survivors);

} // namespace longsight

#endif // LONGSIGHT_CORE_SCF_HH
