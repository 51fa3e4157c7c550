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
#include "util/scratch_arena.hh"

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

void
scalarDotMulti(const float *qs, size_t q_stride, size_t num_queries,
               const float *keys, size_t stride, size_t dim,
               const uint32_t *idx, size_t first, size_t count, float scale,
               float *out, size_t out_stride)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    for (size_t j = 0; j < count; ++j) {
        const float *k = keys + (idx ? idx[j] : first + j) * stride;
        for (size_t q = 0; q < num_queries; ++q)
            out[q * out_stride + j] =
                dotRowScaled(qs + q * q_stride, k, dim, scale);
    }
}

void
scalarWeightedSum(const float *p, const float *values, size_t stride,
                  size_t dim, const uint32_t *idx, size_t first,
                  size_t count, float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    for (size_t j = 0; j < count; ++j) {
        const float *v = values + (idx ? idx[j] : first + j) * stride;
        const float pj = p[j];
        for (size_t d = 0; d < dim; ++d)
            out[d] += pj * v[d];
    }
}

const KernelOps kScalarOps = {scalarConcordance, scalarDotAt,
                              scalarScanMulti,   scalarBitmapMulti,
                              scalarSignReduce,  scalarInt8DotAt,
                              scalarDotMulti,    scalarWeightedSum};

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
batchDotScaleMulti(const float *queries, size_t query_stride,
                   size_t num_queries, const Matrix &keys,
                   const uint32_t *indices, size_t first, size_t count,
                   float scale, float *out, size_t out_stride)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    if (indices) {
        for (size_t j = 0; j < count; ++j)
            LS_ASSERT(indices[j] < keys.rows(), "score index ", indices[j],
                      " out of ", keys.rows());
    } else {
        LS_ASSERT(first + count <= keys.rows(), "score range [", first,
                  ",", first + count, ") out of ", keys.rows());
    }
    if (count == 0)
        return;
    const detail::KernelOps &o = ops();
    const size_t dim = keys.cols();
    // A lone query (or a row too wide for the op's tiles) gains nothing
    // from lanes; dotAt is the same contract one query at a time.
    const size_t lanes =
        dim <= kDotMultiMaxDim ? kDotMultiQueries : size_t{1};
    for (size_t q0 = 0; q0 < num_queries; q0 += lanes) {
        const size_t nq = std::min(lanes, num_queries - q0);
        if (nq == 1)
            o.dotAt(queries + q0 * query_stride, keys.data(), dim, dim,
                    indices, first, count, scale, out + q0 * out_stride);
        else
            o.dotMulti(queries + q0 * query_stride, query_stride, nq,
                       keys.data(), dim, dim, indices, first, count, scale,
                       out + q0 * out_stride, out_stride);
    }
}

void
batchWeightedSum(const float *probs, const Matrix &values,
                 const uint32_t *indices, size_t first, size_t count,
                 float *out)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    if (indices) {
        for (size_t j = 0; j < count; ++j)
            LS_ASSERT(indices[j] < values.rows(), "value index ",
                      indices[j], " out of ", values.rows());
    } else {
        LS_ASSERT(first + count <= values.rows(), "value range [", first,
                  ",", first + count, ") out of ", values.rows());
    }
    if (count == 0)
        return;
    ops().weightedSum(probs, values.data(), values.cols(), values.cols(),
                      indices, first, count, out);
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
    LS_ASSERT(k > 0, "batchScoreSelectMultiSpans k must be positive");
    LS_ASSERT(out_stride >= std::min(k, total),
              "batchScoreSelectMultiSpans out_stride ", out_stride,
              " < selection capacity ", std::min(k, total));

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

    // Stack-local tiles keep the scan's working set in L1 and off the
    // heap. Tile size trades scan/score call overhead against the
    // survivors living in cache while they are scored. Every key's
    // score is computed independently and a selector's result does not
    // depend on the order it is offered candidates, so the tile size
    // cannot change a selection. Each tile's union of the chunk's
    // survivors is scored once against the whole chunk (one key row
    // load serves every query, and a GQA group's survivors overlap
    // heavily); each query then offers its selector only its own
    // survivors, reading their scores through the row's union slot.
    constexpr size_t kTile = 512;
    uint32_t idx[kMaxScanQueries * kTile];
    uint32_t union_rows[kTile];
    uint32_t slot[kTile];
    uint8_t kept[kTile];
    size_t tile_counts[kMaxScanQueries];
    TopKSelector sel[kMaxScanQueries];

    const size_t kcap = std::min(k, total);
    ScratchFrame frame(ScratchArena::forThisThread());
    const size_t chunk = std::min(kMaxScanQueries, num_queries);
    RankEntry *store =
        frame.alloc<RankEntry>(chunk * TopKSelector::storageFor(kcap));
    float *scores = frame.alloc<float>(chunk * kTile);

    const detail::KernelOps &o = ops();
    const size_t wpr = signs.wordsPerRow();
    const int dim = static_cast<int>(signs.dim());

    for (size_t q0 = 0; q0 < num_queries; q0 += kMaxScanQueries) {
        const size_t nq = std::min(kMaxScanQueries, num_queries - q0);
        for (size_t qi = 0; qi < nq; ++qi)
            sel[qi] = TopKSelector(store + qi * TopKSelector::storageFor(kcap),
                                   kcap);
        for (size_t s = 0; s < num_spans; ++s) {
            const ScanSpan &sp = spans[s];
            // logical = physical + delta for every row in this span.
            const int64_t delta =
                static_cast<int64_t>(sp.logicalBase) -
                static_cast<int64_t>(sp.physBegin);
            for (size_t at = 0; at < sp.count; at += kTile) {
                const size_t rows = std::min(kTile, sp.count - at);
                const auto base = static_cast<uint32_t>(sp.physBegin + at);
                for (size_t qi = 0; qi < nq; ++qi)
                    tile_counts[qi] = 0;
                o.scanMulti(query_words + q0 * wpr, nq,
                            signs.data() + (sp.physBegin + at) * wpr, wpr,
                            rows, dim, threshold, base, idx, kTile,
                            tile_counts);

                // The tile's union, in ascending rows, and each row's
                // slot in it (branch-free compaction). A lone query's
                // own list is its union.
                const uint32_t *urows = idx;
                size_t nu = tile_counts[0];
                if (nq > 1) {
                    std::fill_n(kept, rows, uint8_t{0});
                    for (size_t qi = 0; qi < nq; ++qi)
                        for (size_t j = 0; j < tile_counts[qi]; ++j)
                            kept[idx[qi * kTile + j] - base] = 1;
                    nu = 0;
                    for (size_t r = 0; r < rows; ++r) {
                        slot[r] = static_cast<uint32_t>(nu);
                        union_rows[nu] = base + static_cast<uint32_t>(r);
                        nu += kept[r];
                    }
                    urows = union_rows;
                }
                if (nu == 0)
                    continue;
                batchDotScaleMulti(queries + q0 * query_stride,
                                   query_stride, nq, keys, urows, 0, nu,
                                   scale, scores, kTile);

                for (size_t qi = 0; qi < nq; ++qi) {
                    const size_t n = tile_counts[qi];
                    if (survivor_counts)
                        survivor_counts[q0 + qi] += n;
                    if (span_survivors)
                        span_survivors[s] += n;
                    // The union pass scored PHYSICAL rows; the
                    // selector gets their logical ids.
                    const uint32_t *qidx = idx + qi * kTile;
                    const float *qs = scores + qi * kTile;
                    for (size_t j = 0; j < n; ++j)
                        sel[qi].push(
                            qs[nq > 1 ? slot[qidx[j] - base] : j],
                            static_cast<uint32_t>(
                                static_cast<int64_t>(qidx[j]) + delta));
                }
            }
        }
        for (size_t qi = 0; qi < nq; ++qi)
            out_sizes[q0 + qi] =
                sel[qi].finish(out + (q0 + qi) * out_stride);
    }
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

} // namespace longsight
