#include "tensor/kernels.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string>

#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {
namespace detail {
namespace {

/** Sequential double-precision dot of one key row (the repo-wide
 *  scoring contract; every backend reproduces this order exactly). */
inline float
dotRowScaled(const float *q, const float *k, size_t dim, float scale)
{
    double acc = 0.0;
    for (size_t i = 0; i < dim; ++i)
        acc += static_cast<double>(q[i]) * static_cast<double>(k[i]);
    return static_cast<float>(acc) * scale;
}

inline int
rowConcordance(const uint64_t *q, const uint64_t *row, size_t wpr, int dim)
{
    int mismatches = 0;
    for (size_t w = 0; w < wpr; ++w)
        mismatches += std::popcount(row[w] ^ q[w]);
    return dim - mismatches;
}

void
scalarConcordance(const uint64_t *q, const uint64_t *signs, size_t wpr,
                  size_t rows, int dim, int32_t *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    for (size_t r = 0; r < rows; ++r)
        out[r] = rowConcordance(q, signs + r * wpr, wpr, dim);
}

void
scalarDotAt(const float *q, const float *keys, size_t stride, size_t dim,
            const uint32_t *idx, size_t first, size_t count, float scale,
            float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    for (size_t j = 0; j < count; ++j) {
        const size_t row = idx ? idx[j] : first + j;
        out[j] = dotRowScaled(q, keys + row * stride, dim, scale);
    }
}

void
scalarScanMulti(const uint64_t *qs, size_t num_queries,
                const uint64_t *signs, size_t wpr, size_t rows, int dim,
                int threshold, uint32_t base, uint32_t *out, size_t stride,
                size_t *counts)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    // Row-major walk: each sign row is read once and tested against
    // every query while it is hot. Per query the emission order is
    // ascending rows.
    for (size_t r = 0; r < rows; ++r) {
        const uint64_t *row = signs + r * wpr;
        for (size_t q = 0; q < num_queries; ++q) {
            if (rowConcordance(qs + q * wpr, row, wpr, dim) >= threshold)
                out[q * stride + counts[q]++] =
                    base + static_cast<uint32_t>(r);
        }
    }
}

void
scalarBitmapMulti(const uint64_t *qs, size_t num_queries,
                  const uint64_t *signs, size_t wpr, size_t rows, int dim,
                  int threshold, uint64_t *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    for (size_t i = 0; i < 2 * num_queries; ++i)
        out[i] = 0;
    for (size_t r = 0; r < rows; ++r) {
        const uint64_t *row = signs + r * wpr;
        const uint64_t bit = uint64_t{1} << (r & 63);
        for (size_t q = 0; q < num_queries; ++q) {
            if (rowConcordance(qs + q * wpr, row, wpr, dim) >= threshold)
                out[q * 2 + (r >> 6)] |= bit;
        }
    }
}

void
scalarSignReduce(const uint64_t *signs, size_t wpr, size_t rows,
                 uint64_t *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    // Naive per-bit counting — the independent oracle the SIMD
    // backends' carry-save majority (signReduceColumnCsa) is fuzzed
    // against. Runs once per block, not per token, so the O(64 x rows)
    // inner loop is off the per-token critical path.
    for (size_t w = 0; w < wpr; ++w) {
        uint64_t word = 0;
        for (size_t b = 0; b < 64; ++b) {
            size_t count = 0;
            for (size_t r = 0; r < rows; ++r)
                count += (signs[r * wpr + w] >> b) & 1;
            if (2 * count >= rows)
                word |= uint64_t{1} << b;
        }
        out[w] = word;
    }
}

void
scalarQuantDotAt(const float *q, const int8_t *keys, const float *scales,
                 size_t stride, size_t dim, const uint32_t *idx,
                 size_t first, size_t count, float post_scale, float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    // The dotQuantized rounding contract — double accumulation in
    // ascending dimension order, ONE double multiply by the row scale,
    // one cast to float — followed by one float multiply by
    // post_scale (the attention scale the unfused path applied after
    // scoreKey). Every backend reproduces this order exactly.
    for (size_t j = 0; j < count; ++j) {
        const size_t row = idx ? idx[j] : first + j;
        const int8_t *k = keys + row * stride;
        double acc = 0.0;
        for (size_t i = 0; i < dim; ++i)
            acc += static_cast<double>(k[i]) * q[i];
        out[j] = static_cast<float>(acc * scales[row]) * post_scale;
    }
}

void
scalarInt8DotAt(const int8_t *q, const int8_t *keys, size_t stride,
                size_t dim, const uint32_t *idx, size_t first,
                size_t count, int32_t *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    for (size_t j = 0; j < count; ++j) {
        const size_t row = idx ? idx[j] : first + j;
        const int8_t *k = keys + row * stride;
        int32_t acc = 0;
        for (size_t i = 0; i < dim; ++i)
            acc += static_cast<int32_t>(q[i]) * static_cast<int32_t>(k[i]);
        out[j] = acc;
    }
}

const KernelOps kScalarOps = {scalarConcordance, scalarDotAt,
                              scalarScanMulti, scalarBitmapMulti,
                              scalarSignReduce, scalarQuantDotAt,
                              scalarInt8DotAt};

} // namespace

const KernelOps *
scalarKernelOps()
{
    return &kScalarOps;
}

} // namespace detail

namespace {

const detail::KernelOps *
opsFor(KernelBackend b)
{
    switch (b) {
    case KernelBackend::Scalar:
        return detail::scalarKernelOps();
    case KernelBackend::Avx2:
        return detail::avx2KernelOps();
    case KernelBackend::Neon:
        return detail::neonKernelOps();
    }
    return nullptr;
}

struct Dispatch
{
    std::atomic<const detail::KernelOps *> ops{nullptr};
    std::atomic<KernelBackend> backend{KernelBackend::Scalar};
};

constexpr KernelBackend kAllBackends[] = {
    KernelBackend::Scalar, KernelBackend::Avx2, KernelBackend::Neon};

/**
 * Backend a LONGSIGHT_KERNELS value selects: the named backend when it
 * is available, else `detected` after one warning that lists what is
 * available. Never exits — the first kernel call, which lands here,
 * may run on a pool worker.
 */
KernelBackend
envKernelBackend(const char *env, KernelBackend detected)
{
    for (KernelBackend b : kAllBackends)
        if (kernelBackendAvailable(b) &&
            std::strcmp(env, kernelBackendName(b)) == 0)
            return b;
    std::string available;
    for (KernelBackend b : kAllBackends)
        if (kernelBackendAvailable(b))
            available += std::string(available.empty() ? "" : ", ") +
                kernelBackendName(b);
    warn("LONGSIGHT_KERNELS=", env, " is not an available kernel ",
         "backend (available: ", available, "); using ",
         kernelBackendName(detected));
    return detected;
}

Dispatch &
dispatch()
{
    LS_CONTRACT_EXEMPT(); // one-time init: call_once/getenv are cold
    static Dispatch d;
    static std::once_flag init;
    std::call_once(init, [] {
        KernelBackend pick = detectKernelBackend();
        if (const char *env = std::getenv("LONGSIGHT_KERNELS"))
            pick = envKernelBackend(env, pick);
        d.ops.store(opsFor(pick), std::memory_order_relaxed);
        d.backend.store(pick, std::memory_order_relaxed);
    });
    return d;
}

inline const detail::KernelOps &
ops()
{
    return *dispatch().ops.load(std::memory_order_relaxed);
}

} // namespace

const char *
kernelBackendName(KernelBackend b)
{
    switch (b) {
    case KernelBackend::Scalar:
        return "scalar";
    case KernelBackend::Avx2:
        return "avx2";
    case KernelBackend::Neon:
        return "neon";
    }
    return "unknown";
}

bool
kernelBackendAvailable(KernelBackend b)
{
    return opsFor(b) != nullptr;
}

KernelBackend
activeKernelBackend()
{
    return dispatch().backend.load(std::memory_order_relaxed);
}

KernelBackend
detectKernelBackend()
{
    if (detail::avx2KernelOps())
        return KernelBackend::Avx2;
    if (detail::neonKernelOps())
        return KernelBackend::Neon;
    return KernelBackend::Scalar;
}

void
setKernelBackend(KernelBackend b)
{
    const detail::KernelOps *o = opsFor(b);
    LS_ASSERT(o != nullptr, "kernel backend ", kernelBackendName(b),
              " is not available on this machine");
    Dispatch &d = dispatch();
    d.ops.store(o, std::memory_order_relaxed);
    d.backend.store(b, std::memory_order_relaxed);
}


void
batchConcordance(const uint64_t *query_words, const SignMatrix &m,
                 size_t begin, size_t end, int32_t *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(begin <= end && end <= m.rows(), "batchConcordance range [",
              begin, ",", end, ") out of ", m.rows());
    if (begin == end)
        return;
    ops().concordance(query_words, m.data() + begin * m.wordsPerRow(),
                      m.wordsPerRow(), end - begin,
                      static_cast<int>(m.dim()), out);
}

void
blockSignReduce(const uint64_t *signs, size_t words_per_row, size_t rows,
                uint64_t *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(rows >= 1, "blockSignReduce needs at least one row");
    ops().signReduce(signs, words_per_row, rows, out);
}

void
batchDotScaleAt(const float *q, const Matrix &keys, const uint32_t *indices,
                size_t count, float scale, float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    for (size_t j = 0; j < count; ++j)
        LS_ASSERT(indices[j] < keys.rows(), "score index ", indices[j],
                  " out of ", keys.rows());
    if (count == 0)
        return;
    ops().dotAt(q, keys.data(), keys.cols(), keys.cols(), indices, 0,
                count, scale, out);
}

void
batchDotScaleRange(const float *q, const Matrix &keys, size_t begin,
                   size_t end, float scale, float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(begin <= end && end <= keys.rows(), "score range [", begin,
              ",", end, ") out of ", keys.rows());
    if (begin == end)
        return;
    ops().dotAt(q, keys.data(), keys.cols(), keys.cols(), nullptr, begin,
                end - begin, scale, out);
}

void
concordanceBitmapMulti(const uint64_t *query_words, size_t num_queries,
                       const SignMatrix &m, size_t begin, uint32_t num_keys,
                       int threshold, uint64_t *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(num_keys <= 128,
              "concordanceBitmapMulti holds at most 128 keys");
    LS_ASSERT(begin + num_keys <= m.rows(), "concordanceBitmapMulti ",
              "range [", begin, ",", begin + num_keys, ") out of ",
              m.rows());
    if (num_keys == 0) {
        for (size_t i = 0; i < 2 * num_queries; ++i)
            out[i] = 0;
        return;
    }
    if (num_queries == 0)
        return;
    const size_t wpr = m.wordsPerRow();
    for (size_t q0 = 0; q0 < num_queries; q0 += kMaxScanQueries) {
        const size_t nq = std::min(kMaxScanQueries, num_queries - q0);
        ops().bitmapMulti(query_words + q0 * wpr, nq,
                          m.data() + begin * wpr, wpr, num_keys,
                          static_cast<int>(m.dim()), threshold,
                          out + q0 * 2);
    }
}

namespace {

/** Total tokens covered by a span list, with in-bounds and
 *  ascending-logical-order checks against the backing storage. */
size_t
checkSpans(const ScanSpan *spans, size_t num_spans, size_t phys_rows)
{
    size_t total = 0;
    size_t next_logical = 0;
    for (size_t s = 0; s < num_spans; ++s) {
        LS_ASSERT(spans[s].physBegin + spans[s].count <= phys_rows,
                  "span ", s, " rows [", spans[s].physBegin, ",",
                  spans[s].physBegin + spans[s].count, ") out of ",
                  phys_rows);
        LS_ASSERT(s == 0 || spans[s].logicalBase >= next_logical,
                  "span ", s, " logical base ", spans[s].logicalBase,
                  " overlaps previous span end ", next_logical);
        next_logical = spans[s].logicalBase + spans[s].count;
        total += spans[s].count;
    }
    return total;
}

/**
 * The fused scan -> score -> select tile loop both SCF drivers share;
 * they differ only in `score(q, rows, n, out)`, which scores query q
 * against the n PHYSICAL rows listed in `rows`. The heap sees each
 * query's survivors in ascending logical order (spans ascend
 * logically, the scan emits ascending rows), so the tile size cannot
 * change a selection: the scan emits survivors in order and every
 * key's score is computed independently. Within a tile the key rows a
 * group's survivors gather from overlap heavily, so the shared pass
 * reuses key tiles while they are hot, not just the packed sign rows.
 */
template <class Score>
void
scoreSelectSpans(const char *who, const uint64_t *query_words,
                 size_t num_queries, const SignMatrix &signs,
                 const ScanSpan *spans, size_t num_spans, size_t total,
                 int threshold, size_t k, ScoredIndex *out,
                 size_t out_stride, size_t *out_sizes,
                 size_t *survivor_counts, size_t *span_survivors,
                 Score score)
{
    LS_ASSERT(k > 0, who, " k must be positive");
    LS_ASSERT(out_stride >= std::min(k, total), who, " out_stride ",
              out_stride, " < heap capacity ", std::min(k, total));

    for (size_t q = 0; q < num_queries; ++q) {
        out_sizes[q] = 0;
        if (survivor_counts)
            survivor_counts[q] = 0;
    }
    for (size_t s = 0; s < num_spans; ++s)
        if (span_survivors)
            span_survivors[s] = 0;
    if (total == 0 || num_queries == 0)
        return;

    // Stack-local tiles keep the working set in L1 and off the heap.
    // Tile size trades scan/score call overhead against the survivors
    // living in cache while they are scored.
    constexpr size_t kTile = 512;
    uint32_t idx[kMaxScanQueries * kTile];
    float scores[kTile];
    size_t tile_counts[kMaxScanQueries];

    const detail::KernelOps &o = ops();
    const size_t wpr = signs.wordsPerRow();
    const int dim = static_cast<int>(signs.dim());

    for (size_t q0 = 0; q0 < num_queries; q0 += kMaxScanQueries) {
        const size_t nq = std::min(kMaxScanQueries, num_queries - q0);
        for (size_t s = 0; s < num_spans; ++s) {
            const ScanSpan &sp = spans[s];
            // logical = physical + delta for every row in this span.
            const int64_t delta =
                static_cast<int64_t>(sp.logicalBase) -
                static_cast<int64_t>(sp.physBegin);
            for (size_t at = 0; at < sp.count; at += kTile) {
                const size_t rows = std::min(kTile, sp.count - at);
                for (size_t qi = 0; qi < nq; ++qi)
                    tile_counts[qi] = 0;
                o.scanMulti(
                    query_words + q0 * wpr, nq,
                    signs.data() + (sp.physBegin + at) * wpr, wpr, rows,
                    dim, threshold,
                    static_cast<uint32_t>(sp.physBegin + at), idx, kTile,
                    tile_counts);
                for (size_t qi = 0; qi < nq; ++qi) {
                    const size_t n = tile_counts[qi];
                    if (n == 0)
                        continue;
                    const size_t q = q0 + qi;
                    if (survivor_counts)
                        survivor_counts[q] += n;
                    if (span_survivors)
                        span_survivors[s] += n;
                    const uint32_t *qidx = idx + qi * kTile;
                    score(q, qidx, n, scores);
                    ScoredIndex *heap = out + q * out_stride;
                    size_t hs = out_sizes[q];
                    for (size_t j = 0; j < n; ++j)
                        hs = topk_heap::push(
                            heap, hs, k,
                            ScoredIndex{scores[j],
                                        static_cast<uint32_t>(
                                            static_cast<int64_t>(qidx[j]) +
                                            delta)});
                    out_sizes[q] = hs;
                }
            }
        }
    }
    for (size_t q = 0; q < num_queries; ++q)
        topk_heap::sortBestFirst(out + q * out_stride, out_sizes[q]);
}

} // namespace

void
batchScanMultiSpans(const uint64_t *query_words, size_t num_queries,
                    const SignMatrix &m, const ScanSpan *spans,
                    size_t num_spans, int threshold, uint32_t *survivors,
                    size_t stride, size_t *counts, size_t *span_survivors)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t total = checkSpans(spans, num_spans, m.rows());
    LS_ASSERT(stride >= total, "batchScanMultiSpans stride ", stride,
              " < total span tokens ", total);
    for (size_t q = 0; q < num_queries; ++q)
        counts[q] = 0;
    for (size_t s = 0; s < num_spans; ++s)
        if (span_survivors)
            span_survivors[s] = 0;
    if (total == 0 || num_queries == 0)
        return;

    // The scan op appends base + row at counts[q], so passing each
    // span's logicalBase as the base writes logical ids straight into
    // the caller's lists — no scratch tile, no remap pass. Each query's
    // region holds `total` slots and the op's store-then-advance writes
    // at most counts[q] + span rows - 1 <= total - 1.
    const size_t wpr = m.wordsPerRow();
    const int dim = static_cast<int>(m.dim());
    for (size_t q0 = 0; q0 < num_queries; q0 += kMaxScanQueries) {
        const size_t nq = std::min(kMaxScanQueries, num_queries - q0);
        for (size_t s = 0; s < num_spans; ++s) {
            const ScanSpan &sp = spans[s];
            const size_t before = span_survivors
                ? std::accumulate(counts + q0, counts + q0 + nq, size_t{0})
                : 0;
            ops().scanMulti(query_words + q0 * wpr, nq,
                            m.data() + sp.physBegin * wpr, wpr, sp.count,
                            dim, threshold,
                            static_cast<uint32_t>(sp.logicalBase),
                            survivors + q0 * stride, stride, counts + q0);
            if (span_survivors)
                span_survivors[s] += std::accumulate(
                    counts + q0, counts + q0 + nq, size_t{0}) - before;
        }
    }
}

void
batchScoreSelectMultiSpans(const uint64_t *query_words, size_t num_queries,
                           const SignMatrix &signs, const ScanSpan *spans,
                           size_t num_spans, int threshold,
                           const float *queries, size_t query_stride,
                           const Matrix &keys, float scale, size_t k,
                           ScoredIndex *out, size_t out_stride,
                           size_t *out_sizes, size_t *survivor_counts,
                           size_t *span_survivors)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t total = checkSpans(spans, num_spans, signs.rows());
    LS_ASSERT(checkSpans(spans, num_spans, keys.rows()) == total,
              "batchScoreSelectMultiSpans sign/key row mismatch");
    const detail::KernelOps &o = ops();
    scoreSelectSpans(
        "batchScoreSelectMultiSpans", query_words, num_queries, signs,
        spans, num_spans, total, threshold, k, out, out_stride, out_sizes,
        survivor_counts, span_survivors,
        [&](size_t q, const uint32_t *rows, size_t n, float *scores) {
            o.dotAt(queries + q * query_stride, keys.data(), keys.cols(),
                    keys.cols(), rows, 0, n, scale, scores);
        });
}

void
batchQuantDotRange(const float *q, const int8_t *keys, const float *scales,
                   size_t dim, size_t begin, size_t end, float post_scale,
                   float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(begin <= end, "quant score range [", begin, ",", end, ")");
    if (begin == end)
        return;
    ops().quantDotAt(q, keys, scales, dim, dim, nullptr, begin,
                     end - begin, post_scale, out);
}

void
batchInt8DotRange(const int8_t *q, const int8_t *keys, size_t dim,
                  size_t begin, size_t end, int32_t *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(begin <= end, "int8 dot range [", begin, ",", end, ")");
    if (begin == end)
        return;
    ops().int8DotAt(q, keys, dim, dim, nullptr, begin, end - begin, out);
}

void
batchQuantScoreSelectMultiSpans(
    const uint64_t *query_words, size_t num_queries,
    const SignMatrix &signs, const ScanSpan *spans, size_t num_spans,
    int threshold, const float *queries, size_t query_stride,
    const int8_t *keys, const float *scales, size_t dim,
    float post_scale, size_t k, ScoredIndex *out, size_t out_stride,
    size_t *out_sizes, size_t *survivor_counts, size_t *span_survivors)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t total = checkSpans(spans, num_spans, signs.rows());
    const detail::KernelOps &o = ops();
    scoreSelectSpans(
        "batchQuantScoreSelectMultiSpans", query_words, num_queries, signs,
        spans, num_spans, total, threshold, k, out, out_stride, out_sizes,
        survivor_counts, span_survivors,
        [&](size_t q, const uint32_t *rows, size_t n, float *scores) {
            o.quantDotAt(queries + q * query_stride, keys, scales, dim, dim,
                         rows, 0, n, post_scale, scores);
        });
}

void
batchInt8ScoreSelectMultiSpans(
    const int8_t *q8s, const float *q_scales, size_t num_queries,
    const int8_t *keys, const float *scales, size_t dim,
    const ScanSpan *spans, size_t num_spans, float post_scale, size_t k,
    ScoredIndex *out, size_t out_stride, size_t *out_sizes,
    size_t *span_candidates)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    size_t total = 0;
    size_t next_logical = 0;
    for (size_t s = 0; s < num_spans; ++s) {
        LS_ASSERT(s == 0 || spans[s].logicalBase >= next_logical,
                  "int8 span ", s, " logical base ", spans[s].logicalBase,
                  " overlaps previous span end ", next_logical);
        next_logical = spans[s].logicalBase + spans[s].count;
        total += spans[s].count;
    }
    LS_ASSERT(k > 0, "batchInt8ScoreSelectMultiSpans k must be positive");
    LS_ASSERT(out_stride >= std::min(k, total),
              "batchInt8ScoreSelectMultiSpans out_stride ", out_stride,
              " < heap capacity ", std::min(k, total));

    for (size_t q = 0; q < num_queries; ++q)
        out_sizes[q] = 0;
    for (size_t s = 0; s < num_spans; ++s)
        if (span_candidates)
            span_candidates[s] = num_queries * spans[s].count;
    if (total == 0 || num_queries == 0)
        return;

    // Every row is a candidate: the estimation cost is the exact
    // integer dot, so there is no cheap pre-filter to scan with. The
    // float estimate is derived HERE, once, in driver code — the
    // backends only supply the exact integer dots — so the
    // multiplication order (qp * scales[row], then one multiply by the
    // converted dot) is a single shared contract.
    constexpr size_t kTile = 512;
    int32_t idot[kTile];

    const detail::KernelOps &o = ops();

    for (size_t q = 0; q < num_queries; ++q) {
        const int8_t *q8 = q8s + q * dim;
        const float qp = q_scales[q] * post_scale;
        ScoredIndex *heap = out + q * out_stride;
        size_t hs = 0;
        for (size_t s = 0; s < num_spans; ++s) {
            const ScanSpan &sp = spans[s];
            const int64_t delta =
                static_cast<int64_t>(sp.logicalBase) -
                static_cast<int64_t>(sp.physBegin);
            for (size_t at = 0; at < sp.count; at += kTile) {
                const size_t rows = std::min(kTile, sp.count - at);
                const size_t phys = sp.physBegin + at;
                o.int8DotAt(q8, keys, dim, dim, nullptr, phys, rows,
                            idot);
                for (size_t j = 0; j < rows; ++j) {
                    const float est = static_cast<float>(idot[j]) *
                        (qp * scales[phys + j]);
                    hs = topk_heap::push(
                        heap, hs, k,
                        ScoredIndex{est,
                                    static_cast<uint32_t>(
                                        static_cast<int64_t>(phys + j) +
                                        delta)});
                }
            }
        }
        out_sizes[q] = hs;
        topk_heap::sortBestFirst(heap, hs);
    }
}

} // namespace longsight
