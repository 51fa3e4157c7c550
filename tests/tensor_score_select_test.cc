/**
 * @file
 * Tests for the fused scan -> score -> select driver serving one
 * query (batchScoreSelectMultiSpans with num_queries = 1 over an
 * identity span, the shape a flat cache hands it): element-for-element
 * identity with a naive scan + linalg dot() + topkSelect pipeline on
 * every available backend, deterministic index tie-breaking on equal
 * scores, k larger than the survivor count, sub-range scans that keep
 * logical indices, and the survivor-count side output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/topk.hh"
#include "tensor/kernels.hh"
#include "tensor/linalg.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

std::vector<KernelBackend>
availableBackends()
{
    std::vector<KernelBackend> out{KernelBackend::Scalar};
    for (auto b : {KernelBackend::Avx2, KernelBackend::Neon})
        if (kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

/** The naive pipeline the fused driver contracts to match: a per-row
 *  concordance loop, linalg dot() scoring, and topkSelect. */
std::vector<ScoredIndex>
reference(const float *q, const SignMatrix &signs, size_t begin,
          size_t end, int threshold, const Matrix &keys, float scale,
          size_t k, size_t *survivors_out)
{
    const SignBits qbits(q, keys.cols());
    std::vector<uint32_t> survivors;
    std::vector<float> scores;
    for (size_t i = begin; i < end; ++i) {
        if (qbits.concordance(signs.extract(i)) >= threshold) {
            survivors.push_back(static_cast<uint32_t>(i));
            scores.push_back(dot(q, keys.row(i), keys.cols()) * scale);
        }
    }
    if (survivors_out)
        *survivors_out = survivors.size();
    return topkSelect(scores, survivors, k);
}

/** One query through the fused span driver over [begin, end). */
size_t
selectOne(const uint64_t *qw, const SignMatrix &signs, size_t begin,
          size_t end, int threshold, const float *q, const Matrix &keys,
          float scale, size_t k, ScoredIndex *out,
          size_t *survivors = nullptr)
{
    const ScanSpan span{begin, end - begin, begin};
    size_t n = 0;
    batchScoreSelectMultiSpans(qw, 1, signs, &span, 1, threshold, q,
                               keys.cols(), keys, scale, k, out,
                               std::min(k, end - begin), &n, survivors);
    return n;
}

void
expectSame(const std::vector<ScoredIndex> &ref, const ScoredIndex *got,
           size_t got_n, const char *what)
{
    ASSERT_EQ(ref.size(), got_n) << what;
    for (size_t i = 0; i < got_n; ++i) {
        EXPECT_EQ(ref[i].index, got[i].index) << what << " rank " << i;
        EXPECT_EQ(ref[i].score, got[i].score) << what << " rank " << i;
    }
}

TEST(BatchScoreSelect, MatchesUnfusedPipelineAcrossBackends)
{
    const KernelBackend active = activeKernelBackend();
    Rng rng(11);
    for (size_t dim : {64u, 128u}) {
        for (size_t n : {1u, 100u, 700u, 2048u}) {
            const Matrix keys(n, dim, rng.gaussianVec(n * dim));
            const SignMatrix signs =
                SignMatrix::pack(keys.data(), n, dim);
            const auto q = rng.gaussianVec(dim);
            std::vector<uint64_t> qw(signs.wordsPerRow());
            packSigns(q.data(), dim, qw.data());
            const int threshold = static_cast<int>(dim) / 2;
            for (size_t k : {size_t{1}, size_t{13}, size_t{128}, n}) {
                size_t ref_survivors = 0;
                const auto ref = reference(q.data(), signs, 0, n,
                                           threshold, keys, 0.125f, k,
                                           &ref_survivors);
                for (KernelBackend b : availableBackends()) {
                    setKernelBackend(b);
                    std::vector<ScoredIndex> sel(std::min(k, n));
                    size_t survivors = 0;
                    const size_t m = selectOne(
                        qw.data(), signs, 0, n, threshold, q.data(),
                        keys, 0.125f, k, sel.data(), &survivors);
                    expectSame(ref, sel.data(), m,
                               kernelBackendName(b));
                    EXPECT_EQ(survivors, ref_survivors)
                        << kernelBackendName(b);
                }
                setKernelBackend(active);
            }
        }
    }
}

TEST(BatchScoreSelect, TiedScoresBreakTowardLowerIndex)
{
    const KernelBackend active = activeKernelBackend();
    const size_t dim = 64;
    Rng rng(5);
    // 64 copies of 4 distinct keys: plenty of exactly-equal scores.
    const auto base = rng.gaussianVec(4 * dim);
    Matrix keys(256, dim);
    for (size_t i = 0; i < 256; ++i)
        keys.setRow(i, base.data() + (i % 4) * dim);
    const SignMatrix signs = SignMatrix::pack(keys.data(), 256, dim);
    const auto q = rng.gaussianVec(dim);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), dim, qw.data());

    for (KernelBackend b : availableBackends()) {
        setKernelBackend(b);
        std::vector<ScoredIndex> sel(16);
        const size_t m = selectOne(qw.data(), signs, 0, 256, 0, q.data(),
                                   keys, 1.0f, 16, sel.data());
        ASSERT_EQ(m, 16u) << kernelBackendName(b);
        // Best-first: scores descend; equal scores order by index.
        for (size_t i = 1; i < m; ++i) {
            EXPECT_TRUE(sel[i - 1].betterThan(sel[i]))
                << kernelBackendName(b) << " rank " << i;
            if (sel[i - 1].score == sel[i].score)
                EXPECT_LT(sel[i - 1].index, sel[i].index)
                    << kernelBackendName(b) << " rank " << i;
        }
        // The winners are the 16 lowest indices of the best key class
        // (every 4th row scores identically).
        for (size_t i = 1; i < m; ++i)
            EXPECT_EQ(sel[i].index, sel[0].index + 4 * i)
                << kernelBackendName(b);
    }
    setKernelBackend(active);
}

TEST(BatchScoreSelect, KLargerThanSurvivorCountReturnsAll)
{
    const size_t dim = 64, n = 300;
    Rng rng(17);
    const Matrix keys(n, dim, rng.gaussianVec(n * dim));
    const SignMatrix signs = SignMatrix::pack(keys.data(), n, dim);
    const auto q = rng.gaussianVec(dim);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), dim, qw.data());
    // A strict threshold keeps only a handful of survivors.
    const int threshold = static_cast<int>(dim) / 2 + 6;

    size_t survivors = 0;
    std::vector<ScoredIndex> sel(n);
    const size_t m =
        selectOne(qw.data(), signs, 0, n, threshold, q.data(), keys,
                  0.125f, 10 * n, sel.data(), &survivors);
    EXPECT_EQ(m, survivors);
    EXPECT_LT(survivors, n);
    const auto ref = reference(q.data(), signs, 0, n, threshold, keys,
                               0.125f, 10 * n, nullptr);
    expectSame(ref, sel.data(), m, "k >= survivors");
}

TEST(BatchScoreSelect, HonorsSubRange)
{
    const size_t dim = 64, n = 512;
    Rng rng(23);
    const Matrix keys(n, dim, rng.gaussianVec(n * dim));
    const SignMatrix signs = SignMatrix::pack(keys.data(), n, dim);
    const auto q = rng.gaussianVec(dim);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), dim, qw.data());

    const size_t begin = 100, end = 400;
    std::vector<ScoredIndex> sel(end - begin);
    const size_t m = selectOne(qw.data(), signs, begin, end, 0, q.data(),
                               keys, 0.125f, 64, sel.data());
    ASSERT_EQ(m, 64u);
    for (size_t i = 0; i < m; ++i) {
        EXPECT_GE(sel[i].index, begin);
        EXPECT_LT(sel[i].index, end);
    }
    const auto ref = reference(q.data(), signs, begin, end, 0, keys,
                               0.125f, 64, nullptr);
    expectSame(ref, sel.data(), m, "sub-range");
}

TEST(BatchScoreSelect, EmptyRangeAndNoSurvivors)
{
    const size_t dim = 64, n = 64;
    Rng rng(29);
    const Matrix keys(n, dim, rng.gaussianVec(n * dim));
    const SignMatrix signs = SignMatrix::pack(keys.data(), n, dim);
    const auto q = rng.gaussianVec(dim);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), dim, qw.data());

    ScoredIndex sel[8];
    size_t survivors = 123;
    EXPECT_EQ(selectOne(qw.data(), signs, 10, 10, 0, q.data(), keys, 1.0f,
                        8, sel, &survivors),
              0u);
    EXPECT_EQ(survivors, 0u);
    // Impossible threshold: scan finds nothing.
    EXPECT_EQ(selectOne(qw.data(), signs, 0, n, static_cast<int>(dim) + 1,
                        q.data(), keys, 1.0f, 8, sel, &survivors),
              0u);
    EXPECT_EQ(survivors, 0u);
}

} // namespace
} // namespace longsight
