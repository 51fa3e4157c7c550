/**
 * @file
 * Multi-query (GQA query group) span-driver tests. The contract under
 * test is the whole point of the grouped scan layer: for every
 * compiled-in backend, batchScanMultiSpans, concordanceBitmapMulti, and
 * batchScoreSelectMultiSpans must give each query exactly what a naive
 * per-row loop computes for it alone — across awkward dims, row
 * counts, thresholds, subranges, span lists remapped onto shuffled
 * physical rows, query counts (one query, non-multiples of the SIMD
 * chunk width, and more than kMaxScanQueries to force driver
 * chunking), and empty regions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/topk.hh"
#include "tensor/kernels.hh"
#include "tensor/linalg.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"
#include "tensor/tensor.hh"
#include "tensor/topk_selector.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

/** Backends available on this host (scalar always is). */
std::vector<KernelBackend>
availableBackends()
{
    std::vector<KernelBackend> out{KernelBackend::Scalar};
    for (auto b : {KernelBackend::Avx2, KernelBackend::Neon})
        if (kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

/** Force a backend for the current scope, restoring on exit. */
class ScopedBackend
{
  public:
    explicit ScopedBackend(KernelBackend b) : prev_(activeKernelBackend())
    {
        setKernelBackend(b);
    }
    ~ScopedBackend() { setKernelBackend(prev_); }

  private:
    KernelBackend prev_;
};

struct Shape
{
    size_t dim;
    size_t rows;
};

const Shape kShapes[] = {
    {1, 5},     {37, 13},  {64, 129}, {100, 77},
    {128, 130}, {129, 33}, {200, 50},
};

/** A group of queries plus their packed filter-space sign words. */
struct QueryGroup
{
    Matrix q;
    std::vector<uint64_t> words;
    std::vector<SignBits> bits;
};

QueryGroup
makeQueries(Rng &rng, size_t nq, size_t dim, size_t wpr)
{
    QueryGroup g;
    g.q.resize(nq, dim);
    g.words.resize(nq * wpr);
    for (size_t i = 0; i < nq; ++i) {
        const auto v = rng.gaussianVec(dim);
        g.q.setRow(i, v.data());
        packSigns(v.data(), dim, g.words.data() + i * wpr);
        g.bits.emplace_back(v.data(), dim);
    }
    return g;
}

/** Naive oracle: rows in [begin, end) whose concordance passes. */
std::vector<uint32_t>
naiveSurvivors(const SignBits &q, const SignMatrix &m, size_t begin,
               size_t end, int threshold)
{
    std::vector<uint32_t> out;
    for (size_t i = begin; i < end; ++i)
        if (q.concordance(m.extract(i)) >= threshold)
            out.push_back(static_cast<uint32_t>(i));
    return out;
}

/** Naive fused oracle: survivors scored with linalg dot() and top-k
 *  selected (topkSelect breaks score ties toward the lower index). */
std::vector<ScoredIndex>
naiveSelect(const SignBits &qbits, const float *q, const SignMatrix &m,
            const Matrix &keys, size_t begin, size_t end, int threshold,
            float scale, size_t k)
{
    const auto surv = naiveSurvivors(qbits, m, begin, end, threshold);
    std::vector<float> scores;
    for (uint32_t i : surv)
        scores.push_back(dot(q, keys.row(i), keys.cols()) * scale);
    return topkSelect(scores, surv, k);
}

/** The identity span over [begin, end): a flat cache's span list. */
ScanSpan
identity(size_t begin, size_t end)
{
    return ScanSpan{begin, end - begin, begin};
}

TEST(MultiScan, SurvivorsMatchNaivePerQueryAllBackends)
{
    Rng rng(201);
    for (const Shape &sh : kShapes) {
        const auto flat = rng.gaussianVec(sh.rows * sh.dim);
        const SignMatrix m =
            SignMatrix::pack(flat.data(), sh.rows, sh.dim);
        const int dim_i = static_cast<int>(sh.dim);
        const ScanSpan all = identity(0, sh.rows);
        for (size_t nq : {size_t{1}, size_t{3}, size_t{4}, size_t{5},
                          size_t{16}}) {
            const QueryGroup g = makeQueries(rng, nq, sh.dim,
                                             m.wordsPerRow());
            for (int th : {0, dim_i / 3, dim_i / 2 + 2, dim_i + 1}) {
                std::vector<std::vector<uint32_t>> ref(nq);
                for (size_t i = 0; i < nq; ++i)
                    ref[i] = naiveSurvivors(g.bits[i], m, 0, sh.rows, th);
                for (KernelBackend b : availableBackends()) {
                    ScopedBackend guard(b);
                    // Awkward stride: wider than the row count.
                    const size_t stride = sh.rows + 3;
                    std::vector<uint32_t> got(nq * stride, 0xdeadu);
                    std::vector<size_t> counts(nq, 777);
                    batchScanMultiSpans(g.words.data(), nq, m, &all, 1, th,
                                        got.data(), stride, counts.data());
                    for (size_t i = 0; i < nq; ++i) {
                        ASSERT_EQ(counts[i], ref[i].size())
                            << kernelBackendName(b) << " dim " << sh.dim
                            << " nq " << nq << " th " << th << " q "
                            << i;
                        for (size_t j = 0; j < counts[i]; ++j)
                            ASSERT_EQ(got[i * stride + j], ref[i][j])
                                << kernelBackendName(b) << " q " << i
                                << " j " << j;
                    }
                }
            }
        }
    }
}

TEST(MultiScan, SubrangeKeepsLogicalIndices)
{
    Rng rng(202);
    const size_t dim = 128, rows = 300;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const QueryGroup g = makeQueries(rng, 4, dim, m.wordsPerRow());
    const int th = 66;
    const size_t begin = 17, end = 261;
    const ScanSpan sub = identity(begin, end);
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        const size_t stride = end - begin;
        std::vector<uint32_t> got(4 * stride);
        std::vector<size_t> counts(4);
        batchScanMultiSpans(g.words.data(), 4, m, &sub, 1, th, got.data(),
                            stride, counts.data());
        for (size_t i = 0; i < 4; ++i) {
            const auto ref = naiveSurvivors(g.bits[i], m, begin, end, th);
            ASSERT_EQ(counts[i], ref.size()) << kernelBackendName(b);
            for (size_t j = 0; j < counts[i]; ++j) {
                ASSERT_EQ(got[i * stride + j], ref[j]);
                ASSERT_GE(got[i * stride + j], begin);
            }
        }
    }
}

TEST(MultiScan, RemappedSpansEmitLogicalIndices)
{
    // Logical rows live in 7-row blocks stored at shuffled physical
    // positions (plus unused physical rows): the survivors must come
    // back as ascending LOGICAL ids, exactly the naive scan over the
    // logical layout, and span_survivors must split the totals by span.
    Rng rng(208);
    const size_t dim = 100, block = 7, nblocks = 9;
    const size_t logical_rows = block * nblocks;
    const auto flat = rng.gaussianVec(logical_rows * dim);
    const SignMatrix logical =
        SignMatrix::pack(flat.data(), logical_rows, dim);
    std::vector<size_t> perm(nblocks);
    std::iota(perm.begin(), perm.end(), size_t{0});
    std::reverse(perm.begin(), perm.end());
    std::swap(perm[1], perm[5]);
    SignMatrix phys(dim);
    phys.resizeRows((nblocks + 1) * block);
    std::vector<ScanSpan> spans;
    for (size_t lb = 1; lb < nblocks; ++lb) { // logical block 0 unused
        const size_t pb = perm[lb] + 1;       // physical block 0 unused
        for (size_t r = 0; r < block; ++r)
            phys.setRow(pb * block + r, flat.data() + (lb * block + r) * dim);
        spans.push_back(ScanSpan{pb * block, block, lb * block});
    }
    // Trim the last span so one span is partial.
    spans.back().count = 3;
    const size_t end = spans.back().logicalBase + 3;
    const size_t nq = 6;
    const QueryGroup g = makeQueries(rng, nq, dim, phys.wordsPerRow());
    const int th = 50;

    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        const size_t stride = end - block;
        std::vector<uint32_t> got(nq * stride);
        std::vector<size_t> counts(nq), span_surv(spans.size(), 99);
        batchScanMultiSpans(g.words.data(), nq, phys, spans.data(),
                            spans.size(), th, got.data(), stride,
                            counts.data(), span_surv.data());
        size_t total = 0;
        for (size_t i = 0; i < nq; ++i) {
            const auto ref =
                naiveSurvivors(g.bits[i], logical, block, end, th);
            ASSERT_EQ(counts[i], ref.size()) << kernelBackendName(b);
            for (size_t j = 0; j < counts[i]; ++j)
                ASSERT_EQ(got[i * stride + j], ref[j])
                    << kernelBackendName(b) << " q " << i << " j " << j;
            total += counts[i];
        }
        for (size_t s = 0; s < spans.size(); ++s) {
            size_t want = 0;
            for (size_t i = 0; i < nq; ++i)
                want += naiveSurvivors(g.bits[i], logical,
                                       spans[s].logicalBase,
                                       spans[s].logicalBase +
                                           spans[s].count,
                                       th)
                            .size();
            EXPECT_EQ(span_surv[s], want) << kernelBackendName(b)
                                          << " span " << s;
        }
        EXPECT_EQ(std::accumulate(span_surv.begin(), span_surv.end(),
                                  size_t{0}),
                  total);
    }
}

TEST(MultiScan, ChunksBeyondMaxQueries)
{
    // 19 queries forces the public driver to split into
    // kMaxScanQueries-sized streaming chunks; results must be
    // indistinguishable from one pass per query.
    Rng rng(203);
    const size_t dim = 128, rows = 200, nq = kMaxScanQueries + 3;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const QueryGroup g = makeQueries(rng, nq, dim, m.wordsPerRow());
    const int th = 64;
    const ScanSpan all = identity(0, rows);
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        std::vector<uint32_t> got(nq * rows);
        std::vector<size_t> counts(nq);
        batchScanMultiSpans(g.words.data(), nq, m, &all, 1, th, got.data(),
                            rows, counts.data());
        for (size_t i = 0; i < nq; ++i) {
            const auto ref = naiveSurvivors(g.bits[i], m, 0, rows, th);
            ASSERT_EQ(counts[i], ref.size())
                << kernelBackendName(b) << " q " << i;
            for (size_t j = 0; j < ref.size(); ++j)
                ASSERT_EQ(got[i * rows + j], ref[j]);
        }
    }
}

TEST(MultiScan, EmptyRangeZeroesCounts)
{
    Rng rng(204);
    const size_t dim = 64, rows = 40;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const QueryGroup g = makeQueries(rng, 5, dim, m.wordsPerRow());
    const ScanSpan empty = identity(9, 9);
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        std::vector<uint32_t> got(5 * rows, 0xdeadu);
        std::vector<size_t> counts(5, 777);
        size_t span_surv = 777;
        batchScanMultiSpans(g.words.data(), 5, m, &empty, 1, 0, got.data(),
                            rows, counts.data(), &span_surv);
        for (size_t i = 0; i < 5; ++i)
            EXPECT_EQ(counts[i], 0u) << kernelBackendName(b);
        EXPECT_EQ(span_surv, 0u) << kernelBackendName(b);
        // An empty span list behaves the same.
        std::fill(counts.begin(), counts.end(), 777);
        batchScanMultiSpans(g.words.data(), 5, m, nullptr, 0, 0, got.data(),
                            rows, counts.data());
        for (size_t i = 0; i < 5; ++i)
            EXPECT_EQ(counts[i], 0u) << kernelBackendName(b);
    }
}

TEST(BitmapMulti, MatchesNaivePerQuery)
{
    Rng rng(205);
    const size_t dim = 100, rows = 140;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const int th = 52;
    for (uint32_t num_keys : {1u, 63u, 64u, 65u, 127u, 128u}) {
        for (size_t nq : {size_t{1}, size_t{4}, size_t{16}, size_t{17}}) {
            const QueryGroup g = makeQueries(rng, nq, dim,
                                             m.wordsPerRow());
            for (KernelBackend b : availableBackends()) {
                ScopedBackend guard(b);
                std::vector<uint64_t> got(2 * nq, ~uint64_t{0});
                concordanceBitmapMulti(g.words.data(), nq, m, 7,
                                       num_keys, th, got.data());
                for (size_t i = 0; i < nq; ++i) {
                    uint64_t ref[2] = {0, 0};
                    for (uint32_t j : naiveSurvivors(g.bits[i], m, 7,
                                                     7 + num_keys, th))
                        ref[(j - 7) >> 6] |= uint64_t{1} << ((j - 7) & 63);
                    EXPECT_EQ(got[i * 2 + 0], ref[0])
                        << kernelBackendName(b) << " keys " << num_keys
                        << " q " << i;
                    EXPECT_EQ(got[i * 2 + 1], ref[1])
                        << kernelBackendName(b) << " keys " << num_keys
                        << " q " << i;
                }
            }
        }
    }
}

TEST(ScoreSelectMulti, TopKMatchesNaivePerQueryAllBackends)
{
    Rng rng(206);
    for (const size_t dim : {size_t{64}, size_t{100}, size_t{128}}) {
        const size_t rows = 300;
        Matrix keys(rows, dim, rng.gaussianVec(rows * dim));
        const SignMatrix m = SignMatrix::pack(keys.data(), rows, dim);
        const float scale =
            1.0f / std::sqrt(static_cast<float>(dim));
        const int th = static_cast<int>(dim) / 2;
        const size_t wpr = m.wordsPerRow();
        const ScanSpan sub = identity(3, rows);
        for (const size_t nq : {size_t{1}, size_t{4}, size_t{19}}) {
            const QueryGroup g = makeQueries(rng, nq, dim, wpr);
            for (const size_t k : {size_t{8}, size_t{64}, size_t{1000}}) {
                const size_t kcap = std::min(k, rows);
                std::vector<std::vector<ScoredIndex>> ref(nq);
                for (size_t i = 0; i < nq; ++i)
                    ref[i] = naiveSelect(g.bits[i], g.q.row(i), m, keys, 3,
                                         rows, th, scale, k);
                for (KernelBackend b : availableBackends()) {
                    ScopedBackend guard(b);
                    std::vector<ScoredIndex> got(nq * kcap);
                    std::vector<size_t> got_n(nq), surv(nq);
                    batchScoreSelectMultiSpans(
                        g.words.data(), nq, m, &sub, 1, th, g.q.row(0),
                        g.q.cols(), keys, scale, k, got.data(), kcap,
                        got_n.data(), surv.data());
                    for (size_t i = 0; i < nq; ++i) {
                        ASSERT_EQ(got_n[i], ref[i].size())
                            << kernelBackendName(b) << " dim " << dim
                            << " k " << k << " q " << i;
                        EXPECT_GE(surv[i], got_n[i]);
                        for (size_t j = 0; j < got_n[i]; ++j) {
                            ASSERT_EQ(got[i * kcap + j].index,
                                      ref[i][j].index)
                                << kernelBackendName(b) << " q " << i
                                << " j " << j;
                            ASSERT_EQ(got[i * kcap + j].score,
                                      ref[i][j].score)
                                << kernelBackendName(b) << " q " << i
                                << " j " << j;
                        }
                    }
                }
            }
        }
    }
}

TEST(ScoreSelectMulti, SurvivorCountsMatchScan)
{
    Rng rng(207);
    const size_t dim = 128, rows = 256;
    Matrix keys(rows, dim, rng.gaussianVec(rows * dim));
    const SignMatrix m = SignMatrix::pack(keys.data(), rows, dim);
    const int th = 64;
    const QueryGroup g = makeQueries(rng, 4, dim, m.wordsPerRow());
    const ScanSpan all = identity(0, rows);
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        std::vector<ScoredIndex> out(4 * rows);
        std::vector<size_t> nsel(4), surv(4);
        size_t span_surv = 0;
        batchScoreSelectMultiSpans(g.words.data(), 4, m, &all, 1, th,
                                   g.q.row(0), g.q.cols(), keys, 0.125f,
                                   rows, out.data(), rows, nsel.data(),
                                   surv.data(), &span_surv);
        size_t total = 0;
        for (size_t i = 0; i < 4; ++i) {
            const auto ref = naiveSurvivors(g.bits[i], m, 0, rows, th);
            EXPECT_EQ(surv[i], ref.size()) << kernelBackendName(b);
            // k >= rows: the top-k IS the survivor set.
            EXPECT_EQ(nsel[i], ref.size()) << kernelBackendName(b);
            total += ref.size();
        }
        EXPECT_EQ(span_surv, total) << kernelBackendName(b);
    }
}

} // namespace
} // namespace longsight
