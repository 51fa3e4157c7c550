/**
 * @file
 * Differential kernel-parity fuzzer: feeds randomized shapes,
 * thresholds, query groups, span layouts, and value patterns through
 * EVERY compiled-in kernel backend (scalar, AVX2, NEON) and asserts
 * per-element bit identity of the outputs — concordance counts,
 * survivor sets, PFU bitmaps, scaled dot products, block sign
 * signatures, INT8 dots, the fused span select, the grouped
 * (queries-in-lanes) dot and the weighted value sum. The lane ops run
 * on full-mantissa values, so a reordered or fused accumulation
 * changes bits. On every backend it
 * also checks the span family's two structural promises, query by
 * query:
 *
 *  - a one-query call equals that query's slice of a grouped call
 *    (2..17 queries, so the drivers' kMaxScanQueries chunking and
 *    every SIMD chunk width — including AVX2's one-query branch next
 *    to the AVX-512 4-query chunks — are crossed);
 *  - one identity span equals the same rows split into spans stored
 *    at shuffled physical rows (with unused rows in between);
 *  - each lane of a grouped dot (1..17 queries, crossing the 8-lane
 *    chunk and the tile cap's one-query fallback) equals that query's
 *    one-query batchDotScaleAt;
 *  - the dotMulti op at every width 1..8, gathered and over a range,
 *    equals the same backend's dotAt op lane by lane.
 *
 * This is the mechanized form of the SCF bit-exactness contract
 * documented in tensor/kernels.hh: results must not depend on which
 * backend, group, or storage layout serves them.
 *
 * Two entry points share one case runner:
 *
 *  - a standalone driver (GCC or any compiler): generates cases from a
 *    deterministic splitmix64 stream, bounded by --iters or --seconds,
 *    and replays any files passed as positional arguments;
 *  - a libFuzzer target (clang with -fsanitize=fuzzer only), enabled
 *    by building with -DLONGSIGHT_LIBFUZZER.
 *
 * Any divergence prints the full case (seed, shape, backend, first
 * differing element) and aborts, so both CI smoke runs and local
 * long-haul runs fail loudly.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "tensor/kernels.hh"
#include "tensor/quantized.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"
#include "tensor/tensor.hh"
#include "tensor/topk_selector.hh"

namespace {

using longsight::KernelBackend;
using longsight::Matrix;
using longsight::ScanSpan;
using longsight::ScoredIndex;
using longsight::SignMatrix;

/** Details of the case being run, for failure reports. */
struct CaseInfo
{
    uint64_t seed = 0;
    size_t dim = 0, rows = 0, begin = 0, end = 0, queries = 0;
    int threshold = 0;
    size_t k = 0;
    const char *backend = "";
    const char *stage = "";
};

CaseInfo g_case;

[[noreturn]] void
fail(const char *what)
{
    std::fprintf(stderr,
                 "kernel-parity FAIL: %s\n"
                 "  stage=%s backend=%s seed=%" PRIu64 "\n"
                 "  dim=%zu rows=%zu range=[%zu,%zu) queries=%zu "
                 "threshold=%d k=%zu\n",
                 what, g_case.stage, g_case.backend, g_case.seed,
                 g_case.dim, g_case.rows, g_case.begin, g_case.end,
                 g_case.queries, g_case.threshold, g_case.k);
    std::abort();
}

void
check(bool ok, const char *what)
{
    if (!ok)
        fail(what);
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Deterministic byte-stream reader (FuzzedDataProvider-alike). */
class Input
{
  public:
    Input(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    uint8_t byte()
    {
        if (pos_ >= size_)
            return 0;
        return data_[pos_++];
    }

    uint32_t u32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v = (v << 8) | byte();
        return v;
    }

    /** Uniform-ish value in [lo, hi] (inclusive). */
    size_t range(size_t lo, size_t hi)
    {
        if (hi <= lo)
            return lo;
        return lo + u32() % (hi - lo + 1);
    }

    /** Small exact float in [-8, 8): every backend must reproduce the
     *  same bits, so values stay finite and well-scaled. */
    float smallFloat()
    {
        return static_cast<float>(static_cast<int32_t>(u32() % 4096) -
                                  2048) /
               256.0f;
    }

    /** Full-mantissa float in [-4, 4). Sums of products of these round,
     *  so an accumulation-order or fused multiply-add deviation changes
     *  bits where smallFloat's exact sums would hide it. */
    float wideFloat()
    {
        return static_cast<float>(static_cast<int32_t>(u32())) *
               (1.0f / 536870912.0f);
    }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

std::vector<KernelBackend>
availableBackends()
{
    std::vector<KernelBackend> out{KernelBackend::Scalar};
    for (auto b : {KernelBackend::Avx2, KernelBackend::Neon})
        if (longsight::kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

/** One physical row layout: float keys plus the sign rows and INT8
 *  arena derived from them, row for row. */
struct Storage
{
    Matrix keys;
    SignMatrix signs;
    std::vector<int8_t> kq;

    explicit Storage(Matrix k)
        : keys(std::move(k)), signs(keys.cols()),
          kq(keys.rows() * keys.cols())
    {
        const size_t dim = keys.cols();
        for (size_t r = 0; r < keys.rows(); ++r) {
            signs.appendRow(keys.row(r));
            float scale = 0.0f; // the int8 x int8 dot ignores scales
            longsight::quantizeInt8Into(keys.row(r), dim,
                                        kq.data() + r * dim, &scale);
        }
    }
};

/** A query group in every form the drivers take. */
struct Queries
{
    const uint64_t *words; // nq * wpr packed signs
    const float *floats;   // nq * dim
    const int8_t *q8s;     // nq * dim
    size_t nq;
};

/** Query q alone, as a one-query group. */
Queries
oneQuery(const Queries &g, size_t q, size_t wpr, size_t dim)
{
    return Queries{g.words + q * wpr, g.floats + q * dim, g.q8s + q * dim,
                   1};
}

/** What the span drivers produce for one query group and span list. */
struct SpanOutputs
{
    size_t nq = 0, stride = 0, out_stride = 0;
    std::vector<uint32_t> scan;      // nq * stride
    std::vector<size_t> counts;      // nq
    std::vector<size_t> scan_span;   // per-span survivors
    std::vector<ScoredIndex> select; // nq * out_stride
    std::vector<size_t> select_n, select_surv, select_span;
};

SpanOutputs
runSpans(const Storage &st, const std::vector<ScanSpan> &spans,
         const Queries &g, size_t total, int threshold, float scale,
         size_t k)
{
    const size_t dim = st.keys.cols();
    const size_t ns = spans.size();
    SpanOutputs o;
    o.nq = g.nq;
    o.stride = std::max<size_t>(total, 1);
    o.out_stride = std::max<size_t>(std::min(k, total), 1);

    g_case.stage = "batchScanMultiSpans";
    o.scan.assign(g.nq * o.stride, 0xffffffffu);
    o.counts.assign(g.nq, 777);
    o.scan_span.assign(std::max<size_t>(ns, 1), 777);
    longsight::batchScanMultiSpans(g.words, g.nq, st.signs, spans.data(),
                                   ns, threshold, o.scan.data(), o.stride,
                                   o.counts.data(), o.scan_span.data());

    g_case.stage = "batchScoreSelectMultiSpans";
    o.select.assign(g.nq * o.out_stride, ScoredIndex{0.0f, 0});
    o.select_n.assign(g.nq, 777);
    o.select_surv.assign(g.nq, 777);
    o.select_span.assign(std::max<size_t>(ns, 1), 777);
    longsight::batchScoreSelectMultiSpans(
        g.words, g.nq, st.signs, spans.data(), ns, threshold, g.floats, dim,
        st.keys, scale, k, o.select.data(), o.out_stride,
        o.select_n.data(), o.select_surv.data(), o.select_span.data());

    o.scan_span.resize(ns);
    o.select_span.resize(ns);
    return o;
}

bool
scoredEq(const ScoredIndex &a, const ScoredIndex &b)
{
    return a.index == b.index &&
           std::memcmp(&a.score, &b.score, sizeof(float)) == 0;
}

/** Query qa of a equals query qb of b: counts and the valid prefix of
 *  every list (the branchless store-then-advance emission may leave
 *  scratch past counts[q], so raw buffers are not compared). */
void
queryEq(const SpanOutputs &a, size_t qa, const SpanOutputs &b, size_t qb,
        const char *what)
{
    check(a.counts[qa] == b.counts[qb], what);
    check(std::equal(a.scan.begin() + qa * a.stride,
                     a.scan.begin() + qa * a.stride + a.counts[qa],
                     b.scan.begin() + qb * b.stride),
          what);
    check(a.select_n[qa] == b.select_n[qb] &&
              a.select_surv[qa] == b.select_surv[qb],
          what);
    check(std::equal(a.select.begin() + qa * a.out_stride,
                     a.select.begin() + qa * a.out_stride + a.select_n[qa],
                     b.select.begin() + qb * b.out_stride, scoredEq),
          what);
}

size_t
sum(const std::vector<size_t> &v)
{
    return std::accumulate(v.begin(), v.end(), size_t{0});
}

/** Everything one backend produces for a case; memcmp-able fields. */
struct Outputs
{
    std::vector<int32_t> concordance;    // query 0 over [begin, end)
    std::vector<uint64_t> bitmap;        // queries * 2
    std::vector<float> dot_at;           // query 0 over its survivors
    std::vector<float> dot_range;        // query 0 over [begin, end)
    std::vector<uint64_t> sign_reduce;   // majority over rows [begin,end)
    std::vector<uint64_t> sign_reduce_q; // majority over the query rows
    std::vector<int32_t> int8_range;     // batchInt8DotRange [begin,end)
    SpanOutputs spans;                   // whole group, identity span
};

/** Run the full public kernel surface on the active backend, plus the
 *  one-vs-group and identity-vs-split checks on that backend. */
Outputs
runKernels(const Storage &flat, const Storage &split_store,
           const std::vector<ScanSpan> &split, const Queries &group,
           size_t begin, size_t end, int threshold, float scale, size_t k)
{
    const size_t span = end - begin;
    const size_t dim = flat.keys.cols();
    const size_t wpr = flat.signs.wordsPerRow();
    const std::vector<ScanSpan> identity{ScanSpan{begin, span, begin}};
    Outputs o;

    g_case.stage = "batchConcordance";
    o.concordance.assign(span, 0);
    if (span)
        longsight::batchConcordance(group.words, flat.signs, begin, end,
                                    o.concordance.data());

    o.spans = runSpans(flat, identity, group, span, threshold, scale, k);
    const SpanOutputs &s = o.spans;

    g_case.stage = "concordanceBitmapMulti";
    const uint32_t nkeys =
        static_cast<uint32_t>(std::min<size_t>(span, 128));
    o.bitmap.assign(group.nq * 2, ~uint64_t{0});
    longsight::concordanceBitmapMulti(group.words, group.nq, flat.signs,
                                      begin, nkeys, threshold,
                                      o.bitmap.data());

    g_case.stage = "batchDotScaleAt";
    const uint32_t *surv0 = s.scan.data();
    o.dot_at.assign(std::max<size_t>(s.counts[0], 1), 0.0f);
    longsight::batchDotScaleAt(group.floats, flat.keys, surv0, s.counts[0],
                               scale, o.dot_at.data());
    o.dot_at.resize(s.counts[0]);

    g_case.stage = "batchDotScaleRange";
    o.dot_range.assign(std::max<size_t>(span, 1), 0.0f);
    longsight::batchDotScaleRange(group.floats, flat.keys, begin, end,
                                  scale, o.dot_range.data());
    o.dot_range.resize(span);
    // A row's score must not depend on gather-vs-range addressing.
    for (size_t j = 0; j < o.dot_at.size(); ++j)
        check(std::memcmp(&o.dot_at[j], &o.dot_range[surv0[j] - begin],
                          sizeof(float)) == 0,
              "dot at/range flavours disagree");

    g_case.stage = "blockSignReduce";
    o.sign_reduce.assign(wpr, 0);
    if (span)
        longsight::blockSignReduce(flat.signs.data() + begin * wpr, wpr,
                                   span, o.sign_reduce.data());
    // Over the packed query rows (nq >= 2), so odd/even row counts and
    // the tie rule are always exercised.
    o.sign_reduce_q.assign(wpr, 0);
    longsight::blockSignReduce(group.words, wpr, group.nq,
                               o.sign_reduce_q.data());

    g_case.stage = "batchInt8DotRange";
    o.int8_range.assign(std::max<size_t>(span, 1), 0);
    longsight::batchInt8DotRange(group.q8s, flat.kq.data(), dim, begin, end,
                                 o.int8_range.data());
    o.int8_range.resize(span);

    // The fused driver scans exactly what the scan driver scans.
    g_case.stage = "fused-vs-scan";
    check(s.select_surv == s.counts,
          "fused survivor counts != scan counts");
    check(s.scan_span == s.select_span && s.scan_span[0] == sum(s.counts),
          "span survivor totals disagree");

    // One query alone == its slice of the group, on this backend.
    for (size_t q = 0; q < group.nq; ++q) {
        const Queries one = oneQuery(group, q, wpr, dim);
        const SpanOutputs alone =
            runSpans(flat, identity, one, span, threshold, scale, k);
        g_case.stage = "one-vs-group";
        queryEq(s, q, alone, 0, "one-query call != its group slice");
        uint64_t bits[2] = {~uint64_t{0}, ~uint64_t{0}};
        longsight::concordanceBitmapMulti(one.words, 1, flat.signs, begin,
                                          nkeys, threshold, bits);
        check(bits[0] == o.bitmap[q * 2] && bits[1] == o.bitmap[q * 2 + 1],
              "one-query bitmap != its group slice");
    }

    // The same rows split into spans at shuffled physical rows.
    const SpanOutputs split_out =
        runSpans(split_store, split, group, span, threshold, scale, k);
    g_case.stage = "identity-vs-split";
    for (size_t q = 0; q < group.nq; ++q)
        queryEq(s, q, split_out, q, "split spans != identity span");
    check(sum(split_out.scan_span) == s.scan_span[0] &&
              split_out.select_span == split_out.scan_span,
          "split span survivor totals disagree");
    return o;
}

template <class T>
void
checkEq(const std::vector<T> &ref, const std::vector<T> &got,
        const char *what)
{
    check(ref.size() == got.size(), what);
    // data() of an empty vector may be null, and memcmp's arguments
    // are declared nonnull even for a zero length (UBSan flags it).
    check(ref.empty() ||
              std::memcmp(ref.data(), got.data(),
                          ref.size() * sizeof(T)) == 0,
          what);
}

void
compareOutputs(const Outputs &ref, const Outputs &got)
{
    g_case.stage = "cross-backend-compare";
    checkEq(ref.concordance, got.concordance, "concordance differs");
    checkEq(ref.bitmap, got.bitmap, "bitmaps differ");
    checkEq(ref.dot_at, got.dot_at, "dotAt scores differ");
    checkEq(ref.dot_range, got.dot_range, "dotRange scores differ");
    checkEq(ref.sign_reduce, got.sign_reduce,
            "block sign-reduce signature differs");
    checkEq(ref.sign_reduce_q, got.sign_reduce_q,
            "query-rows sign-reduce signature differs");
    checkEq(ref.int8_range, got.int8_range, "int8 dotRange values differ");
    checkEq(ref.spans.scan_span, got.spans.scan_span,
            "span survivor totals differ");
    for (size_t q = 0; q < ref.spans.nq; ++q)
        queryEq(ref.spans, q, got.spans, q,
                "span driver outputs differ across backends");
}

/**
 * The rows [begin, end) of `flat`, cut into up to five uneven spans
 * and stored at shuffled physical positions with 0..3 unused rows
 * before each (and after the last): the block-table shape a paged
 * cache hands the drivers. `spans` receives the span list, in
 * ascending logical order.
 */
Storage
shuffledLayout(Input &in, const Matrix &flat, size_t begin, size_t end,
               std::vector<ScanSpan> &spans)
{
    spans.clear();
    for (size_t at = begin; at < end;) {
        const size_t left = end - at;
        const size_t take = spans.size() >= 4 ? left : in.range(1, left);
        spans.push_back(ScanSpan{0, take, at});
        at += take;
    }
    std::vector<size_t> order(spans.size());
    std::iota(order.begin(), order.end(), size_t{0});
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[in.range(0, i - 1)]);
    size_t rows = 0;
    for (size_t i : order) {
        rows += in.range(0, 3);
        spans[i].physBegin = rows;
        rows += spans[i].count;
    }
    rows += in.range(0, 3);

    const size_t dim = flat.cols();
    std::vector<float> data(rows * dim);
    for (auto &v : data)
        v = in.smallFloat(); // unused rows hold unrelated keys
    Matrix keys(rows, dim, std::move(data));
    for (const ScanSpan &sp : spans)
        for (size_t r = 0; r < sp.count; ++r)
            keys.setRow(sp.physBegin + r, flat.row(sp.logicalBase + r));
    return Storage(std::move(keys));
}

/** Head dims the lane kernels treat specially: vector-width edges and
 *  the dotMulti tile cap (the driver falls back one query at a time
 *  past it). */
constexpr size_t kLaneDims[] = {1,  3,   4,   5,
                                63, 64,  65,  128,
                                129, longsight::kDotMultiMaxDim,
                                longsight::kDotMultiMaxDim + 1};

/** One gathered key/value list plus a query group for the lane ops. */
struct LaneCase
{
    Matrix rows;                  // keys, reused as values
    std::vector<uint32_t> idx;    // gathered, unsorted, duplicates
    std::vector<float> queries;   // nq * dim
    std::vector<float> probs;     // max(idx.size(), range count)
    std::vector<float> init;      // nonzero starting out
    size_t nq = 0, first = 0, range_count = 0;
    float scale = 1.0f;
};

struct LaneOutputs
{
    std::vector<float> multi;      // nq * (idx.size() + 1)
    std::vector<float> wsum_at;    // init + gathered weighted sum
    std::vector<float> wsum_range; // init + range weighted sum
};

/**
 * The lane case's own byte stream: the main case usually exhausts the
 * input (its rows alone take rows * dim draws), so the lane stages
 * expand a hash of the whole input through splitmix64 instead. The
 * input still determines every value, so replays reproduce.
 */
std::vector<uint8_t>
laneBytes(const uint8_t *data, size_t size)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV-1a
    for (size_t i = 0; i < size; ++i)
        h = (h ^ data[i]) * 0x100000001b3ull;
    // Enough for the largest shape: 96 rows x (cap + 1) dims of keys,
    // 17 queries of the same width, the pair draws (one per dim plus
    // one per row of each pair), and the index/weight lists.
    std::vector<uint8_t> bytes(
        4 * (162 * (longsight::kDotMultiMaxDim + 1) + 4 * 96 + 64));
    for (size_t i = 0; i < bytes.size(); i += 8) {
        const uint64_t w = splitmix64(h);
        std::memcpy(bytes.data() + i, &w,
                    std::min<size_t>(8, bytes.size() - i));
    }
    return bytes;
}

LaneCase
makeLaneCase(Input &in)
{
    LaneCase c;
    const size_t pick = in.range(0, 2 * std::size(kLaneDims) - 1);
    const size_t dim = pick < std::size(kLaneDims)
        ? kLaneDims[pick]
        : in.range(1, longsight::kDotMultiMaxDim + 1);
    const size_t rows = in.range(1, 96);
    // 1..17 queries: past the 8-lane chunk so the driver's chunking and
    // its one-query branch are both crossed.
    c.nq = in.range(1, 2 * longsight::kDotMultiQueries + 1);
    c.scale = in.smallFloat();
    std::vector<float> data(rows * dim);
    for (auto &v : data)
        v = in.wideFloat();
    c.queries.resize(c.nq * dim);
    for (auto &v : c.queries)
        v = in.wideFloat();
    // Cancelling dimension pairs: every query repeats dim d at d + 1 and
    // every key negates it there, often at 2^40 scale. The pair's
    // products cancel exactly, so the score is small, yet the running
    // double sum rounds while the big term is in it — a score then
    // depends on the accumulation order, which random values alone
    // would hide behind the final float rounding.
    for (size_t d = 0; d + 1 < dim; ++d) {
        if (in.range(0, 7) != 0)
            continue;
        for (size_t q = 0; q < c.nq; ++q)
            c.queries[q * dim + d + 1] = c.queries[q * dim + d];
        for (size_t r = 0; r < rows; ++r) {
            float &k = data[r * dim + d];
            if (in.range(0, 1))
                k *= 1099511627776.0f; // 2^40
            data[r * dim + d + 1] = -k;
        }
        ++d;
    }
    c.rows = Matrix(rows, dim, std::move(data));
    c.idx.resize(in.range(0, 2 * rows));
    for (auto &i : c.idx)
        i = static_cast<uint32_t>(in.range(0, rows - 1));
    c.range_count = in.range(0, rows);
    c.first = in.range(0, rows - c.range_count);
    c.probs.resize(std::max(c.idx.size(), c.range_count));
    for (auto &p : c.probs)
        p = in.wideFloat();
    c.init.resize(dim);
    for (auto &v : c.init)
        v = in.wideFloat();

    g_case = CaseInfo{g_case.seed};
    g_case.dim = dim;
    g_case.rows = rows;
    g_case.begin = c.first;
    g_case.end = c.first + c.range_count;
    g_case.queries = c.nq;
    g_case.k = c.idx.size();
    return c;
}

/** The lane ops on the active backend, with the grouped dot checked
 *  query by query against one-query batchDotScaleAt calls. */
LaneOutputs
runLanes(const LaneCase &c)
{
    const size_t dim = c.rows.cols();
    const size_t count = c.idx.size();
    const size_t stride = count + 1; // one sentinel slot per query
    LaneOutputs o;

    g_case.stage = "batchDotScaleMulti";
    o.multi.assign(c.nq * stride, -7.0f);
    longsight::batchDotScaleMulti(c.queries.data(), dim, c.nq, c.rows,
                                  c.idx.data(), 0, count, c.scale,
                                  o.multi.data(), stride);
    std::vector<float> one(std::max<size_t>(count, 1));
    for (size_t q = 0; q < c.nq; ++q) {
        longsight::batchDotScaleAt(c.queries.data() + q * dim, c.rows,
                                   c.idx.data(), count, c.scale,
                                   one.data());
        check(count == 0 ||
                  std::memcmp(one.data(), o.multi.data() + q * stride,
                              count * sizeof(float)) == 0,
              "grouped dot lane != one-query batchDotScaleAt");
        check(o.multi[q * stride + count] == -7.0f,
              "grouped dot wrote past count");
    }

    g_case.stage = "batchWeightedSum";
    o.wsum_at = c.init;
    longsight::batchWeightedSum(c.probs.data(), c.rows, c.idx.data(), 0,
                                count, o.wsum_at.data());
    o.wsum_range = c.init;
    longsight::batchWeightedSum(c.probs.data(), c.rows, nullptr, c.first,
                                c.range_count, o.wsum_range.data());
    return o;
}

/** The raw op table of one backend (it must be available). */
const longsight::detail::KernelOps &
opsOf(KernelBackend b)
{
    switch (b) {
    case KernelBackend::Avx2:
        return *longsight::detail::avx2KernelOps();
    case KernelBackend::Neon:
        return *longsight::detail::neonKernelOps();
    case KernelBackend::Scalar:
        break;
    }
    return *longsight::detail::scalarKernelOps();
}

/**
 * The dotMulti op itself, at every width 1..kDotMultiQueries (query i
 * is the case's query i mod nq) and in both row addressings (the
 * gathered list and the range), against the same backend's one-query
 * dotAt op lane by lane. batchDotScaleMulti never hands the op one
 * query, so this is the only stage that runs width 1.
 */
void
runDotMultiWidths(const LaneCase &c, KernelBackend b)
{
    const size_t dim = c.rows.cols();
    if (dim > longsight::kDotMultiMaxDim)
        return; // past the op's tile cap; the driver never calls it
    g_case.stage = "dotMulti-widths";
    const auto &o = opsOf(b);
    // One sentinel slot per query.
    const size_t stride = std::max(c.idx.size(), c.range_count) + 1;
    std::vector<float> qs(longsight::kDotMultiQueries * dim);
    for (size_t q = 0; q < longsight::kDotMultiQueries; ++q)
        std::copy_n(c.queries.data() + (q % c.nq) * dim, dim,
                    qs.data() + q * dim);
    std::vector<float> got(longsight::kDotMultiQueries * stride);
    std::vector<float> one(stride);
    for (const bool gather : {true, false}) {
        const uint32_t *idx = gather ? c.idx.data() : nullptr;
        const size_t first = gather ? 0 : c.first;
        const size_t count = gather ? c.idx.size() : c.range_count;
        for (size_t w = 1; w <= longsight::kDotMultiQueries; ++w) {
            std::fill(got.begin(), got.end(), -7.0f);
            o.dotMulti(qs.data(), dim, w, c.rows.data(), dim, dim, idx,
                       first, count, c.scale, got.data(), stride);
            for (size_t q = 0; q < w; ++q) {
                o.dotAt(qs.data() + q * dim, c.rows.data(), dim, dim, idx,
                        first, count, c.scale, one.data());
                check(count == 0 ||
                          std::memcmp(one.data(), got.data() + q * stride,
                                      count * sizeof(float)) == 0,
                      gather ? "gathered dotMulti lane != dotAt"
                             : "range dotMulti lane != dotAt");
                check(got[q * stride + count] == -7.0f,
                      "dotMulti wrote past count");
            }
            check(w == longsight::kDotMultiQueries ||
                      got[w * stride] == -7.0f,
                  "dotMulti wrote a lane past num_queries");
        }
    }
}

/** The lane stages on every backend; the first (scalar) backend's
 *  outputs are the reference. */
void
runLaneCase(const uint8_t *data, size_t size)
{
    const std::vector<uint8_t> bytes = laneBytes(data, size);
    Input in(bytes.data(), bytes.size());
    const LaneCase c = makeLaneCase(in);
    LaneOutputs ref;
    bool have_ref = false;
    for (KernelBackend b : availableBackends()) {
        g_case.backend = longsight::kernelBackendName(b);
        longsight::setKernelBackend(b);
        runDotMultiWidths(c, b);
        LaneOutputs got = runLanes(c);
        if (!have_ref) {
            ref = std::move(got);
            have_ref = true;
            continue;
        }
        g_case.stage = "lane-cross-backend-compare";
        checkEq(ref.multi, got.multi, "grouped dot scores differ");
        checkEq(ref.wsum_at, got.wsum_at,
                "gathered weighted sum differs from the scalar op");
        checkEq(ref.wsum_range, got.wsum_range,
                "range weighted sum differs from the scalar op");
    }
}

void
runCase(const uint8_t *data, size_t size)
{
    Input in(data, size);
    const size_t dim = in.range(1, 200);
    const size_t rows = in.range(0, 260);
    size_t begin = in.range(0, rows);
    size_t end = in.range(begin, rows);
    // Threshold straddles the meaningful range plus both saturations.
    const int threshold =
        static_cast<int>(in.range(0, dim + 2)) - 1;
    const size_t k = in.range(1, rows + 2); // k > 0 is a precondition
    // 2..17 queries: past kMaxScanQueries so the drivers' chunking is
    // exercised, and every remainder a SIMD chunk can leave.
    const size_t num_queries =
        in.range(2, longsight::kMaxScanQueries + 1);
    const float scale = in.smallFloat();

    g_case.dim = dim;
    g_case.rows = rows;
    g_case.begin = begin;
    g_case.end = end;
    g_case.threshold = threshold;
    g_case.k = k;
    g_case.queries = num_queries;

    std::vector<float> key_data(rows * dim);
    for (auto &v : key_data)
        v = in.smallFloat();
    const Storage flat(Matrix(rows, dim, std::move(key_data)));

    std::vector<float> all_queries(num_queries * dim);
    for (auto &v : all_queries)
        v = in.smallFloat();
    const size_t wpr = flat.signs.wordsPerRow();
    std::vector<uint64_t> all_qwords(num_queries * wpr);
    for (size_t q = 0; q < num_queries; ++q)
        longsight::packSigns(all_queries.data() + q * dim, dim,
                             all_qwords.data() + q * wpr);
    // Per-query INT8 quantization for the estimation dot.
    std::vector<int8_t> q8s(num_queries * dim);
    for (size_t q = 0; q < num_queries; ++q) {
        float q8_scale = 1.0f;
        longsight::quantizeInt8Into(all_queries.data() + q * dim, dim,
                                    q8s.data() + q * dim, &q8_scale);
    }
    const Queries group{all_qwords.data(), all_queries.data(), q8s.data(),
                        num_queries};

    std::vector<ScanSpan> split;
    const Storage split_store =
        shuffledLayout(in, flat.keys, begin, end, split);

    const KernelBackend prev = longsight::activeKernelBackend();
    Outputs ref;
    bool have_ref = false;
    for (KernelBackend b : availableBackends()) {
        g_case.backend = longsight::kernelBackendName(b);
        longsight::setKernelBackend(b);
        Outputs got = runKernels(flat, split_store, split, group, begin,
                                 end, threshold, scale, k);
        if (!have_ref) {
            ref = std::move(got);
            have_ref = true;
        } else {
            compareOutputs(ref, got);
        }
    }
    runLaneCase(data, size);
    longsight::setKernelBackend(prev);
}

} // namespace

#if defined(LONGSIGHT_LIBFUZZER)

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    runCase(data, size);
    return 0;
}

#else // standalone driver

namespace {

int
replayFile(const char *path)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }
    std::vector<uint8_t> buf;
    uint8_t chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        buf.insert(buf.end(), chunk, chunk + n);
    std::fclose(f);
    g_case = CaseInfo{};
    runCase(buf.data(), buf.size());
    std::printf("replayed %s (%zu bytes): OK\n", path, buf.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 0x10095117ull; // default: fixed, reproducible
    long iters = 2000;
    double seconds = 0.0;
    std::vector<const char *> replay;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--seed")
            seed = std::strtoull(next(), nullptr, 0);
        else if (a == "--iters")
            iters = std::strtol(next(), nullptr, 0);
        else if (a == "--seconds")
            seconds = std::strtod(next(), nullptr);
        else if (a == "--help" || a == "-h") {
            std::printf("usage: %s [--seed S] [--iters N] "
                        "[--seconds T] [case-file...]\n",
                        argv[0]);
            return 0;
        } else {
            replay.push_back(argv[i]);
        }
    }

    for (const char *path : replay)
        if (int rc = replayFile(path))
            return rc;
    if (!replay.empty())
        return 0;

    size_t backends = availableBackends().size();
    std::printf("kernel-parity fuzz: %zu backend(s):", backends);
    for (KernelBackend b : availableBackends())
        std::printf(" %s", longsight::kernelBackendName(b));
    std::printf("\n");
    if (backends < 2)
        std::printf("note: only one backend available; checking "
                    "internal (one-vs-group, identity-vs-split) parity "
                    "only\n");

    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    long done = 0;
    uint64_t state = seed;
    std::vector<uint8_t> buf;
    while (seconds > 0.0 ? elapsed() < seconds : done < iters) {
        uint64_t case_seed = splitmix64(state);
        g_case = CaseInfo{};
        g_case.seed = case_seed;
        // Size varies so short (truncated-input) cases are covered too.
        buf.resize(64 + case_seed % 3072);
        uint64_t s = case_seed;
        for (size_t i = 0; i < buf.size(); i += 8) {
            uint64_t w = splitmix64(s);
            size_t nb = std::min<size_t>(8, buf.size() - i);
            std::memcpy(buf.data() + i, &w, nb);
        }
        runCase(buf.data(), buf.size());
        ++done;
    }
    std::printf("kernel-parity fuzz: OK (%ld cases, %.1fs, seed "
                "0x%" PRIx64 ")\n",
                done, elapsed(), seed);
    return 0;
}

#endif // LONGSIGHT_LIBFUZZER
