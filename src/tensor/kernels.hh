/**
 * @file
 * Runtime-dispatched batch kernels for the SCF hot path: sign
 * concordance over packed SignMatrix rows (the software twin of the
 * PFU's 128-key popcount sweep), batched survivor scoring
 * (query . key dot products with a fused scale, one query or a
 * queries-in-lanes group), the probability-weighted value sum, and
 * exact int8 x int8 estimation dots (scalar reference, AVX2 maddubs,
 * AVX-512 VNNI vpdpbusd fast paths).
 *
 * Three backends share one contract and are selected once at startup:
 *
 *  - scalar: portable std::popcount / double-accumulation loops;
 *  - avx2:   vpshufb nibble-LUT popcount, 4 packed rows per vector,
 *            4-key transposed dot products (x86-64, detected via
 *            __builtin_cpu_supports);
 *  - neon:   cnt/addv popcount (aarch64, compile-time).
 *
 * Every backend is BIT-IDENTICAL: concordance is integer math, and
 * the dot kernels accumulate each key's products in double precision
 * in strictly ascending dimension order (no FMA, no reassociation),
 * which is exactly what the scalar fallback and the pre-existing
 * linalg dot() compute. Survivor sets, scores, and therefore top-k
 * selections do not depend on the backend; tests and the bench-smoke
 * CI job enforce this.
 *
 * Every scan driver has ONE shape: a query group over a list of
 * logical-to-physical ScanSpans. The group is the GQA heads that share
 * one KV head (plus, optionally, queries from other batched requests
 * pinned to it); a flat cache is one identity span
 * ScanSpan{begin, end - begin, begin}, and a single query is
 * num_queries = 1. Each packed sign row is loaded once per chunk of
 * kMaxScanQueries queries and run through every query's concordance
 * test before the stream advances, and in the fused driver each key
 * that survives for any query of the chunk is scored once against the
 * whole chunk. Per query the survivors, scores, and selections do not
 * depend on the group size, the chunking, or how the rows are split
 * into spans — only the memory-traffic shape changes.
 *
 * The fused scan -> score -> select driver streams survivors tile by
 * tile from the concordance scan straight through scoring into bounded
 * top-k selectors (tensor/topk_selector.hh), never materializing the
 * full survivor or score vectors. It is backend-agnostic — it composes
 * the dispatched scan and dot ops — so every backend gets the fused
 * path with identical results.
 *
 * The backend can be forced (tests, benchmarks, A/B timing) with
 * setKernelBackend() or the LONGSIGHT_KERNELS=scalar|avx2|neon
 * environment variable; a name this binary or CPU cannot run warns
 * once and keeps the detected backend.
 */

#ifndef LONGSIGHT_TENSOR_KERNELS_HH
#define LONGSIGHT_TENSOR_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"
#include "tensor/tensor.hh"
#include "tensor/topk_selector.hh"

namespace longsight {

/** Available kernel implementations. */
enum class KernelBackend { Scalar, Avx2, Neon };

/** Human-readable backend name ("scalar", "avx2", "neon"). */
const char *kernelBackendName(KernelBackend b);

/** Whether a backend is compiled in AND supported by this CPU. */
bool kernelBackendAvailable(KernelBackend b);

/** Backend the dispatcher is currently routing through. */
KernelBackend activeKernelBackend();

/** Best backend available on this machine (what startup picks). */
KernelBackend detectKernelBackend();

/** Force a backend (must be available). Used by parity tests and the
 *  scalar-vs-SIMD benchmark; not intended to be switched while other
 *  threads are inside a kernel. */
void setKernelBackend(KernelBackend b);

/**
 * Concordance of one packed query (see packSigns) with every row in
 * [begin, end): out[i - begin] = dim - popcount(row_i XOR query).
 */
void batchConcordance(const uint64_t *query_words, const SignMatrix &m,
                      size_t begin, size_t end, int32_t *out);

/**
 * Block signature: per-bit majority vote over `rows` packed sign rows
 * of words_per_row words each, laid out back to back (the scratch
 * layout packSigns fills, or a SignMatrix sub-range). Bit b of out is
 * set iff at least half of the rows have bit b set (a tie rounds
 * toward set, mirroring packSigns' v >= 0 convention). out holds
 * words_per_row words, fully overwritten; padding bits past the
 * dimension stay zero because every packed row keeps them zero. Pure
 * integer math — all backends bit-identical. Requires rows >= 1.
 */
void blockSignReduce(const uint64_t *signs, size_t words_per_row,
                     size_t rows, uint64_t *out);

/**
 * Survivor scoring: out[j] = (q . keys[indices[j]]) * scale for
 * j in [0, count), accumulated in double precision per key in
 * ascending dimension order (bit-identical to linalg dot()).
 */
void batchDotScaleAt(const float *q, const Matrix &keys,
                     const uint32_t *indices, size_t count, float scale,
                     float *out);

/** Range flavour: out[i - begin] = (q . keys[i]) * scale. */
void batchDotScaleRange(const float *q, const Matrix &keys, size_t begin,
                        size_t end, float scale, float *out);

/** Queries one dotMulti op call scores at most; batchDotScaleMulti
 *  chunks larger groups. The AVX2 op holds up to 4 queries in one ymm
 *  and runs 5..8 as a second ymm tile over the same widened keys. */
inline constexpr size_t kDotMultiQueries = 8;

/** Largest head dimension the dotMulti op's stack tiles hold; wider
 *  rows fall back to one dotAt pass per query. */
inline constexpr size_t kDotMultiMaxDim = 256;

/**
 * Multi-query scoring: out[q * out_stride + j] = (query_q . row_j) *
 * scale for q in [0, num_queries), j in [0, count), where query_q
 * starts at queries + q * query_stride and row j is
 * keys.row(indices[j]) when indices is non-null (gather), keys.row(first
 * + j) otherwise (range). Every (query, key) score is exactly
 * batchDotScaleAt's, so the result does not depend on num_queries or
 * the chunking; each chunk of up to kDotMultiQueries queries reads the
 * key rows once.
 */
void batchDotScaleMulti(const float *queries, size_t query_stride,
                        size_t num_queries, const Matrix &keys,
                        const uint32_t *indices, size_t first, size_t count,
                        float scale, float *out, size_t out_stride);

/**
 * Weighted value accumulation into caller storage: out[d] += probs[j]
 * * values_row_j[d] for j in [0, count) ascending, one float multiply
 * then one float add per element (never fused). Row j is
 * values.row(indices[j]) when indices is non-null, values.row(first +
 * j) otherwise. out holds values.cols() floats and is NOT zeroed, so
 * callers can accumulate span by span.
 */
void batchWeightedSum(const float *probs, const Matrix &values,
                      const uint32_t *indices, size_t first, size_t count,
                      float *out);

/** Queries one multi-query kernel call serves at most; the public
 *  drivers below chunk larger groups transparently (each chunk is one
 *  streaming pass). Matches the PFU's per-block query capacity. */
inline constexpr size_t kMaxScanQueries = 16;

/**
 * One contiguous run of physical sign/key rows backing a logical token
 * range — the unit a paged KV cache hands the scan drivers. Storage
 * rows [physBegin, physBegin + count) hold logical tokens
 * [logicalBase, logicalBase + count); a flat cache is the degenerate
 * single span with physBegin == logicalBase. Span lists must ascend in
 * logical order so every driver offers candidates in ascending logical
 * order, whatever the physical layout.
 */
struct ScanSpan
{
    size_t physBegin = 0;
    size_t count = 0;
    size_t logicalBase = 0;
};

/**
 * Multi-query SCF survivor scan over a span list: query q's packed
 * sign words live at query_words + q * m.wordsPerRow() (see
 * packSigns); the LOGICAL indices of the rows whose concordance
 * reaches `threshold` land at survivors + q * stride in ascending
 * order, and counts[q] receives how many (counts holds num_queries
 * entries, zeroed by this call). stride must be >= the summed span
 * length. When span_survivors is non-null, span_survivors[s] receives
 * span s's survivor total summed over all queries (the SCF residency
 * statistic). Per query the output does not depend on num_queries.
 */
void batchScanMultiSpans(const uint64_t *query_words, size_t num_queries,
                         const SignMatrix &m, const ScanSpan *spans,
                         size_t num_spans, int threshold,
                         uint32_t *survivors, size_t stride, size_t *counts,
                         size_t *span_survivors = nullptr);

/**
 * PFU-shaped multi-query scan: out + q * 2 receives query q's 128-bit
 * survivor bitmap over keys [begin, begin + num_keys) (num_keys <=
 * 128); bit j is set iff row begin + j passes, out[q * 2] holds keys
 * 0..63 and out[q * 2 + 1] keys 64..127. One pass over the block's
 * sign rows serves every query.
 */
void concordanceBitmapMulti(const uint64_t *query_words,
                            size_t num_queries, const SignMatrix &m,
                            size_t begin, uint32_t num_keys,
                            int threshold, uint64_t *out);

/**
 * Fused scan -> score -> select over a span list — the decode hot
 * path's driver, fed by a paged KV cache's block table (or one
 * identity span over a flat cache). Every row whose sign concordance
 * with query q reaches `threshold` is scored ((q . key_row) * scale,
 * standard double accumulation) and offered to query q's bounded
 * top-k selector. Query q's packed signs are at query_words + q *
 * signs.wordsPerRow(), its float vector at queries + q *
 * query_stride, its selection at out + q * out_stride (out_stride >=
 * min(k, total span tokens)); out_sizes[q] receives its entry count,
 * sorted best-first (score descending, index ascending on ties). Each
 * tile's union of the chunk's survivors is scored once for the whole
 * chunk, and each query is offered only its own survivors' scores; the
 * selectors' buffers come from the calling thread's scratch arena.
 *
 * Within each span the scan and dot kernels see the span's contiguous
 * physical rows (signs and keys share the storage layout), while the
 * indices offered to the selectors are LOGICAL token ids. Because span
 * lists ascend logically, every selection is element-identical to the
 * same rows stored flat — block size cannot change a result — and
 * identical to scanning, scoring (batchDotScaleAt) and top-k selecting
 * each query alone, on every backend. When survivor_counts is
 * non-null, survivor_counts[q] receives query q's SCF survivor total;
 * when span_survivors is non-null, span_survivors[s] receives span
 * s's survivor total summed over the query group (the per-block SCF
 * counter that drives tier promotion/eviction).
 */
void batchScoreSelectMultiSpans(
    const uint64_t *query_words, size_t num_queries,
    const SignMatrix &signs, const ScanSpan *spans, size_t num_spans,
    int threshold, const float *queries, size_t query_stride,
    const Matrix &keys, float scale, size_t k, ScoredIndex *out,
    size_t out_stride, size_t *out_sizes,
    size_t *survivor_counts = nullptr, size_t *span_survivors = nullptr);

/**
 * Exact INT8 x INT8 batch dot over arena rows [begin, end):
 * out[i - begin] = sum_d q[d] * key_row_i[d] in int32. Pure integer
 * math — overflow-free for dim <= 2^17 at the +-127 range
 * quantizeInt8Into produces — so every backend (scalar, AVX2 maddubs,
 * AVX-512 VNNI) is bit-identical by construction. This is the INT8
 * estimation primitive AlgoEvaluator's sweep ranks tokens with: both
 * query and key are quantized, and the caller derives the float
 * estimate float(out[j]) * ((q_scale * post_scale) * key_scale).
 */
void batchInt8DotRange(const int8_t *q, const int8_t *keys, size_t dim,
                       size_t begin, size_t end, int32_t *out);

namespace detail {

/** Raw-pointer kernel table one backend fills in. */
struct KernelOps
{
    /** out[r] = dim - popcount(signs_row_r XOR q), rows rows. */
    void (*concordance)(const uint64_t *q, const uint64_t *signs,
                        size_t words_per_row, size_t rows, int dim,
                        int32_t *out);
    /** out[j] = float(sum_d q[d]*key_row[d]) * scale; row j is
     *  keys + idx[j]*stride when idx, keys + (first+j)*stride else. */
    void (*dotAt)(const float *q, const float *keys, size_t stride,
                  size_t dim, const uint32_t *idx, size_t first,
                  size_t count, float scale, float *out);
    /** One streaming pass over `rows` sign rows serving num_queries
     *  (1..kMaxScanQueries) queries: query q's words start at
     *  qs + q * words_per_row; for every row r passing threshold, in
     *  ascending order, base + r is appended at
     *  out + q * stride + counts[q] and counts[q] advances in place
     *  (callers zero counts before the first call, so calls
     *  accumulate). The slot just past each live list may be
     *  overwritten (branchless store-then-advance), so each query's
     *  region needs room for counts[q] + rows entries. */
    void (*scanMulti)(const uint64_t *qs, size_t num_queries,
                      const uint64_t *signs, size_t words_per_row,
                      size_t rows, int dim, int threshold, uint32_t base,
                      uint32_t *out, size_t stride, size_t *counts);
    /** One pass over rows <= 128 sign rows filling out + q * 2 with
     *  query q's survivor bitmap (bit r set iff row r passes; out
     *  fully overwritten). */
    void (*bitmapMulti)(const uint64_t *qs, size_t num_queries,
                        const uint64_t *signs, size_t words_per_row,
                        size_t rows, int dim, int threshold,
                        uint64_t *out);
    /** Per-bit majority over `rows` packed sign rows: bit b of out is
     *  set iff 2 * count_set(b) >= rows (ties round to set). out holds
     *  words_per_row words, fully overwritten. rows >= 1. */
    void (*signReduce)(const uint64_t *signs, size_t words_per_row,
                       size_t rows, uint64_t *out);
    /** Exact int32 dot of an int8 query against int8 key rows; same
     *  idx/first row addressing as dotAt. Integer math — backends are
     *  free to reassociate (maddubs / vpdpbusd) because the result is
     *  exact either way. */
    void (*int8DotAt)(const int8_t *q, const int8_t *keys, size_t stride,
                      size_t dim, const uint32_t *idx, size_t first,
                      size_t count, int32_t *out);
    /** Queries-in-lanes dot: out[q * out_stride + j] is exactly
     *  dotAt's out[j] (same idx/first row addressing) for query
     *  qs + q * q_stride, for num_queries in [1, kDotMultiQueries] and
     *  dim <= kDotMultiMaxDim. Each lane is one ascending double chain
     *  (mul then add, never FMA), however the backend packs the
     *  lanes. */
    void (*dotMulti)(const float *qs, size_t q_stride, size_t num_queries,
                     const float *keys, size_t stride, size_t dim,
                     const uint32_t *idx, size_t first, size_t count,
                     float scale, float *out, size_t out_stride);
    /** out[d] += p[j] * row_j[d] for j in [0, count) ascending and d in
     *  [0, dim): float multiply then float add per element, never
     *  fused; same idx/first row addressing as dotAt. */
    void (*weightedSum)(const float *p, const float *values, size_t stride,
                        size_t dim, const uint32_t *idx, size_t first,
                        size_t count, float *out);
};

/**
 * Carry-save majority vote down ONE word column: counts bit
 * occupancy across `rows` packed rows in bit-sliced binary planes and
 * compares each of the 64 bit positions against (rows + 1) / 2
 * without ever materializing per-bit integers. Shared by the SIMD
 * backends for word columns left over after their vector width; the
 * scalar backend deliberately uses a naive per-bit counting loop
 * instead, so kernel-parity fuzzing exercises this logic against an
 * independent oracle.
 */
inline uint64_t
signReduceColumnCsa(const uint64_t *signs, size_t words_per_row,
                    size_t rows, size_t col)
{
    // planes[k] holds bit k of each position's running count.
    uint64_t planes[32] = {};
    size_t used = 0;
    for (size_t r = 0; r < rows; ++r) {
        uint64_t carry = signs[r * words_per_row + col];
        for (size_t k = 0; carry != 0; ++k) {
            const uint64_t sum = planes[k] ^ carry;
            carry = planes[k] & carry;
            planes[k] = sum;
            if (k >= used)
                used = k + 1;
        }
    }
    // Bit-sliced compare count >= t, walking planes MSB-first: a
    // position is decided greater the first time its count bit beats
    // t's bit while still tied; positions still tied at the end are
    // equal, and equal passes (>=).
    const uint64_t t = (rows + 1) / 2;
    // Every count fits in `used` planes, so count < 2^used; when t
    // needs a higher bit, no position can reach it.
    if ((t >> used) != 0)
        return 0;
    uint64_t ge = 0;
    uint64_t eq = ~uint64_t{0};
    for (size_t k = used; k-- > 0;) {
        const uint64_t plane = planes[k];
        if ((t >> k) & 1) {
            eq &= plane;
        } else {
            ge |= eq & plane;
            eq &= ~plane;
        }
    }
    return ge | eq;
}

/** nullptr when the backend is not compiled into this binary. */
const KernelOps *scalarKernelOps();
const KernelOps *avx2KernelOps();
const KernelOps *neonKernelOps();

} // namespace detail

} // namespace longsight

#endif // LONGSIGHT_TENSOR_KERNELS_HH
