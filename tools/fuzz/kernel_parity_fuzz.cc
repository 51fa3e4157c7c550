/**
 * @file
 * Differential kernel-parity fuzzer: feeds randomized shapes,
 * thresholds, query groups, span layouts, and value patterns through
 * EVERY compiled-in kernel backend (scalar, AVX2, NEON) and asserts
 * per-element bit identity of the outputs — concordance counts,
 * survivor sets, PFU bitmaps, scaled dot products, block sign
 * signatures, quantized-arena dots, and the fused float / quantized /
 * INT8 span selects. On every backend it also checks the span
 * family's two structural promises, query by query:
 *
 *  - a one-query call equals that query's slice of a grouped call
 *    (2..17 queries, so the drivers' kMaxScanQueries chunking and
 *    every SIMD chunk width — including AVX2's one-query branch next
 *    to the AVX-512 4-query chunks — are crossed);
 *  - one identity span equals the same rows split into spans stored
 *    at shuffled physical rows (with unused rows in between).
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
#include "tensor/topk_heap.hh"

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
    std::vector<float> kscales;

    explicit Storage(Matrix k)
        : keys(std::move(k)), signs(keys.cols()),
          kq(keys.rows() * keys.cols()),
          kscales(std::max<size_t>(keys.rows(), 1), 1.0f)
    {
        const size_t dim = keys.cols();
        for (size_t r = 0; r < keys.rows(); ++r) {
            signs.appendRow(keys.row(r));
            longsight::quantizeInt8Into(keys.row(r), dim,
                                        kq.data() + r * dim, &kscales[r]);
        }
    }
};

/** A query group in every form the drivers take. */
struct Queries
{
    const uint64_t *words;  // nq * wpr packed signs
    const float *floats;    // nq * dim
    const int8_t *q8s;      // nq * dim
    const float *q8_scales; // nq
    size_t nq;
};

/** Query q alone, as a one-query group. */
Queries
oneQuery(const Queries &g, size_t q, size_t wpr, size_t dim)
{
    return Queries{g.words + q * wpr, g.floats + q * dim, g.q8s + q * dim,
                   g.q8_scales + q, 1};
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
    std::vector<ScoredIndex> quant;
    std::vector<size_t> quant_n, quant_surv, quant_span;
    std::vector<ScoredIndex> int8;
    std::vector<size_t> int8_n, int8_cand;
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

    g_case.stage = "batchQuantScoreSelectMultiSpans";
    o.quant.assign(g.nq * o.out_stride, ScoredIndex{0.0f, 0});
    o.quant_n.assign(g.nq, 777);
    o.quant_surv.assign(g.nq, 777);
    o.quant_span.assign(std::max<size_t>(ns, 1), 777);
    longsight::batchQuantScoreSelectMultiSpans(
        g.words, g.nq, st.signs, spans.data(), ns, threshold, g.floats, dim,
        st.kq.data(), st.kscales.data(), dim, scale, k, o.quant.data(),
        o.out_stride, o.quant_n.data(), o.quant_surv.data(),
        o.quant_span.data());

    g_case.stage = "batchInt8ScoreSelectMultiSpans";
    o.int8.assign(g.nq * o.out_stride, ScoredIndex{0.0f, 0});
    o.int8_n.assign(g.nq, 777);
    o.int8_cand.assign(std::max<size_t>(ns, 1), 777);
    longsight::batchInt8ScoreSelectMultiSpans(
        g.q8s, g.q8_scales, g.nq, st.kq.data(), st.kscales.data(), dim,
        spans.data(), ns, scale, k, o.int8.data(), o.out_stride,
        o.int8_n.data(), o.int8_cand.data());

    o.scan_span.resize(ns);
    o.select_span.resize(ns);
    o.quant_span.resize(ns);
    o.int8_cand.resize(ns);
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
    check(a.quant_n[qa] == b.quant_n[qb] &&
              a.quant_surv[qa] == b.quant_surv[qb],
          what);
    check(std::equal(a.quant.begin() + qa * a.out_stride,
                     a.quant.begin() + qa * a.out_stride + a.quant_n[qa],
                     b.quant.begin() + qb * b.out_stride, scoredEq),
          what);
    check(a.int8_n[qa] == b.int8_n[qb], what);
    check(std::equal(a.int8.begin() + qa * a.out_stride,
                     a.int8.begin() + qa * a.out_stride + a.int8_n[qa],
                     b.int8.begin() + qb * b.out_stride, scoredEq),
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
    std::vector<float> quant_range;      // batchQuantDotRange [begin,end)
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

    g_case.stage = "batchQuantDotRange";
    o.quant_range.assign(std::max<size_t>(span, 1), 0.0f);
    longsight::batchQuantDotRange(group.floats, flat.kq.data(),
                                  flat.kscales.data(), dim, begin, end,
                                  scale, o.quant_range.data());
    o.quant_range.resize(span);

    g_case.stage = "batchInt8DotRange";
    o.int8_range.assign(std::max<size_t>(span, 1), 0);
    longsight::batchInt8DotRange(group.q8s, flat.kq.data(), dim, begin, end,
                                 o.int8_range.data());
    o.int8_range.resize(span);

    // The fused drivers scan exactly what the scan driver scans.
    g_case.stage = "fused-vs-scan";
    check(s.select_surv == s.counts && s.quant_surv == s.counts,
          "fused survivor counts != scan counts");
    check(s.scan_span == s.select_span && s.scan_span == s.quant_span &&
              s.scan_span[0] == sum(s.counts),
          "span survivor totals disagree");
    check(s.int8_cand[0] == group.nq * span,
          "INT8 span candidates != queries * span length");

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
              split_out.select_span == split_out.scan_span &&
              split_out.quant_span == split_out.scan_span,
          "split span survivor totals disagree");
    for (size_t si = 0; si < split.size(); ++si)
        check(split_out.int8_cand[si] == group.nq * split[si].count,
              "split INT8 candidates != queries * span length");
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
    checkEq(ref.quant_range, got.quant_range,
            "quant dotRange scores differ");
    checkEq(ref.int8_range, got.int8_range, "int8 dotRange values differ");
    checkEq(ref.spans.scan_span, got.spans.scan_span,
            "span survivor totals differ");
    checkEq(ref.spans.int8_cand, got.spans.int8_cand,
            "int8 candidate counts differ");
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
    // Per-query INT8 quantization for the estimation kernels.
    std::vector<int8_t> q8s(num_queries * dim);
    std::vector<float> q8_scales(num_queries, 1.0f);
    for (size_t q = 0; q < num_queries; ++q)
        longsight::quantizeInt8Into(all_queries.data() + q * dim, dim,
                                    q8s.data() + q * dim, &q8_scales[q]);
    const Queries group{all_qwords.data(), all_queries.data(), q8s.data(),
                        q8_scales.data(), num_queries};

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

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

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
