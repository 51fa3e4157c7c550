/**
 * @file
 * Batch-kernel parity tests: every compiled-in backend (scalar, and
 * AVX2/NEON when the host supports them) must produce BIT-IDENTICAL
 * results — concordance counts, one-query survivor sets, PFU bitmaps,
 * and scaled dot products — across awkward shapes: dims that are not a
 * multiple of 64, row counts that are not a multiple of the vector
 * width, nonzero begin offsets, and empty regions. Scans are checked
 * against a naive per-row loop and dot kernels bit-for-bit against the
 * scalar linalg dot(), which defines the accumulation contract; the
 * grouped dot and the weighted value sum are checked the same way.
 * Also pins the LONGSIGHT_KERNELS fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "tensor/kernels.hh"
#include "tensor/linalg.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"
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
    {1, 5},    {37, 13},  {64, 1},    {64, 129}, {100, 77},
    {128, 4},  {128, 130}, {129, 33}, {200, 50}, {256, 257},
};

TEST(Kernels, EnvOverrideFallsBackToDetectedBackend)
{
    // The first kernel call reads LONGSIGHT_KERNELS. An available
    // backend's name selects it; any other value (an unknown name, or
    // one this CPU lacks — the tensor_kernels_env_fallback ctest entry
    // sets one) warns and keeps the detected backend instead of
    // aborting the run.
    KernelBackend expect = detectKernelBackend();
    if (const char *env = std::getenv("LONGSIGHT_KERNELS"))
        for (auto b : availableBackends())
            if (std::strcmp(env, kernelBackendName(b)) == 0)
                expect = b;
    EXPECT_EQ(activeKernelBackend(), expect);
}

TEST(Kernels, BackendPlumbing)
{
    EXPECT_TRUE(kernelBackendAvailable(KernelBackend::Scalar));
    const KernelBackend best = detectKernelBackend();
    EXPECT_TRUE(kernelBackendAvailable(best));
    EXPECT_STREQ(kernelBackendName(KernelBackend::Scalar), "scalar");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Avx2), "avx2");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Neon), "neon");
    const KernelBackend prev = activeKernelBackend();
    setKernelBackend(KernelBackend::Scalar);
    EXPECT_EQ(activeKernelBackend(), KernelBackend::Scalar);
    setKernelBackend(prev);
    EXPECT_EQ(activeKernelBackend(), prev);
}

TEST(Kernels, ConcordanceMatchesSignBitsAllBackends)
{
    Rng rng(101);
    for (const Shape &sh : kShapes) {
        const auto flat = rng.gaussianVec(sh.rows * sh.dim);
        const SignMatrix m = SignMatrix::pack(flat.data(), sh.rows, sh.dim);
        const auto qv = rng.gaussianVec(sh.dim);
        const SignBits q(qv.data(), sh.dim);

        std::vector<int32_t> ref(sh.rows);
        for (size_t i = 0; i < sh.rows; ++i)
            ref[i] = q.concordance(m.extract(i));

        for (KernelBackend b : availableBackends()) {
            ScopedBackend guard(b);
            std::vector<int32_t> got(sh.rows, -1);
            batchConcordance(q.words().data(), m, 0, sh.rows, got.data());
            EXPECT_EQ(got, ref) << kernelBackendName(b) << " dim "
                                << sh.dim << " rows " << sh.rows;
        }
    }
}

TEST(Kernels, ConcordanceSubrange)
{
    Rng rng(102);
    const size_t dim = 128, rows = 200;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const auto qv = rng.gaussianVec(dim);
    const SignBits q(qv.data(), dim);

    const size_t begin = 17, end = 161;
    std::vector<int32_t> ref(end - begin);
    for (size_t i = begin; i < end; ++i)
        ref[i - begin] = q.concordance(m.extract(i));

    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        std::vector<int32_t> got(end - begin, -1);
        batchConcordance(q.words().data(), m, begin, end, got.data());
        EXPECT_EQ(got, ref) << kernelBackendName(b);
    }
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

/** One query over the identity span [begin, end). */
std::vector<uint32_t>
scanOne(const SignBits &q, const SignMatrix &m, size_t begin, size_t end,
        int threshold)
{
    const ScanSpan span{begin, end - begin, begin};
    std::vector<uint32_t> out(end - begin, 0xdeadu);
    size_t count = 777;
    batchScanMultiSpans(q.words().data(), 1, m, &span, 1, threshold,
                        out.data(), out.size(), &count);
    out.resize(count);
    return out;
}

TEST(Kernels, ScanSurvivorsBitIdenticalAcrossBackends)
{
    Rng rng(103);
    for (const Shape &sh : kShapes) {
        const auto flat = rng.gaussianVec(sh.rows * sh.dim);
        const SignMatrix m = SignMatrix::pack(flat.data(), sh.rows, sh.dim);
        const auto qv = rng.gaussianVec(sh.dim);
        const SignBits q(qv.data(), sh.dim);

        // Sweep thresholds from keep-everything to keep-nothing.
        const int dim_i = static_cast<int>(sh.dim);
        for (int th : {0, dim_i / 3, dim_i / 2, 2 * dim_i / 3, dim_i + 1}) {
            const auto ref = naiveSurvivors(q, m, 0, sh.rows, th);
            for (KernelBackend b : availableBackends()) {
                ScopedBackend guard(b);
                EXPECT_EQ(scanOne(q, m, 0, sh.rows, th), ref)
                    << kernelBackendName(b) << " dim " << sh.dim
                    << " rows " << sh.rows << " th " << th;
            }
        }
    }
}

TEST(Kernels, ScanSubrangeEmitsLogicalIndices)
{
    Rng rng(104);
    const size_t dim = 64, rows = 300;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const auto qv = rng.gaussianVec(dim);
    const SignBits q(qv.data(), dim);
    const int th = 36;
    const size_t begin = 43, end = 291;

    const auto ref = naiveSurvivors(q, m, begin, end, th);
    ASSERT_FALSE(ref.empty());
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        EXPECT_EQ(scanOne(q, m, begin, end, th), ref)
            << kernelBackendName(b);
    }
}

TEST(Kernels, EmptyRegionYieldsNothing)
{
    Rng rng(105);
    const size_t dim = 128;
    const auto flat = rng.gaussianVec(10 * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), 10, dim);
    const auto qv = rng.gaussianVec(dim);
    const SignBits q(qv.data(), dim);
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        EXPECT_TRUE(scanOne(q, m, 4, 4, 0).empty());
        uint64_t bits[2] = {~0ULL, ~0ULL};
        concordanceBitmapMulti(q.words().data(), 1, m, 4, 0, 0, bits);
        EXPECT_EQ(bits[0], 0u);
        EXPECT_EQ(bits[1], 0u);
    }
}

TEST(Kernels, BitmapAgreesWithScan)
{
    Rng rng(106);
    for (uint32_t num_keys : {1u, 63u, 64u, 65u, 127u, 128u}) {
        const size_t dim = 100, rows = 140;
        const auto flat = rng.gaussianVec(rows * dim);
        const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
        const auto qv = rng.gaussianVec(dim);
        const SignBits q(qv.data(), dim);
        const int th = 52;
        const size_t begin = 7;

        for (KernelBackend b : availableBackends()) {
            ScopedBackend guard(b);
            const auto surv = scanOne(q, m, begin, begin + num_keys, th);
            uint64_t bits[2];
            concordanceBitmapMulti(q.words().data(), 1, m, begin,
                                   num_keys, th, bits);
            for (uint32_t j = 0; j < num_keys; ++j) {
                const bool in_bitmap = (bits[j >> 6] >> (j & 63)) & 1;
                const bool in_scan = std::binary_search(
                    surv.begin(), surv.end(),
                    static_cast<uint32_t>(begin + j));
                EXPECT_EQ(in_bitmap, in_scan)
                    << kernelBackendName(b) << " keys " << num_keys
                    << " j " << j;
            }
            // No stray bits above num_keys.
            if (num_keys < 64) {
                EXPECT_EQ(bits[0] >> num_keys, 0u);
            }
            if (num_keys <= 64) {
                EXPECT_EQ(bits[1], 0u);
            } else if (num_keys < 128) {
                EXPECT_EQ(bits[1] >> (num_keys - 64), 0u);
            }
        }
    }
}

TEST(Kernels, DotRangeBitIdenticalToLinalgDot)
{
    Rng rng(107);
    for (const Shape &sh : kShapes) {
        Matrix keys(sh.rows, sh.dim, rng.gaussianVec(sh.rows * sh.dim));
        const auto qv = rng.gaussianVec(sh.dim);
        const float scale = 0.125f;

        std::vector<float> ref(sh.rows);
        for (size_t i = 0; i < sh.rows; ++i)
            ref[i] = dot(qv.data(), keys.row(i), sh.dim) * scale;

        for (KernelBackend b : availableBackends()) {
            ScopedBackend guard(b);
            std::vector<float> got(sh.rows, -1e30f);
            batchDotScaleRange(qv.data(), keys, 0, sh.rows, scale,
                               got.data());
            for (size_t i = 0; i < sh.rows; ++i) {
                // Bit-identical, not approximately equal.
                EXPECT_EQ(got[i], ref[i])
                    << kernelBackendName(b) << " dim " << sh.dim
                    << " row " << i;
            }
        }
    }
}

TEST(Kernels, DotAtGathersArbitraryIndices)
{
    Rng rng(108);
    const size_t dim = 128, rows = 250;
    Matrix keys(rows, dim, rng.gaussianVec(rows * dim));
    const auto qv = rng.gaussianVec(dim);
    const float scale = 1.0f / std::sqrt(static_cast<float>(dim));

    // Unsorted, duplicated, awkward-count index list.
    std::vector<uint32_t> idx;
    for (size_t i = 0; i < 101; ++i)
        idx.push_back(static_cast<uint32_t>((i * 37 + 11) % rows));
    idx.push_back(idx.front());

    std::vector<float> ref(idx.size());
    for (size_t j = 0; j < idx.size(); ++j)
        ref[j] = dot(qv.data(), keys.row(idx[j]), dim) * scale;

    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        std::vector<float> got(idx.size(), -1e30f);
        batchDotScaleAt(qv.data(), keys, idx.data(), idx.size(), scale,
                        got.data());
        for (size_t j = 0; j < idx.size(); ++j)
            EXPECT_EQ(got[j], ref[j])
                << kernelBackendName(b) << " j " << j;
    }
}

TEST(Kernels, DotHandlesEmptyAndTinyCounts)
{
    Rng rng(109);
    const size_t dim = 64;
    Matrix keys(8, dim, rng.gaussianVec(8 * dim));
    const auto qv = rng.gaussianVec(dim);
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        batchDotScaleAt(qv.data(), keys, nullptr, 0, 1.0f, nullptr);
        batchDotScaleRange(qv.data(), keys, 3, 3, 1.0f, nullptr);
        // Counts 1..5 exercise the 4-key-group tail handling.
        for (size_t count = 1; count <= 5; ++count) {
            std::vector<float> got(count, -1e30f);
            batchDotScaleRange(qv.data(), keys, 1, 1 + count, 2.0f,
                               got.data());
            for (size_t i = 0; i < count; ++i)
                EXPECT_EQ(got[i],
                          dot(qv.data(), keys.row(1 + i), dim) * 2.0f);
        }
    }
}

TEST(Kernels, DotMultiMatchesPerQueryDot)
{
    // Every (query, key) score of the grouped driver is the one-query
    // dot bit for bit: query counts cross the 8-lane chunking, dims
    // cross every vector width and the op's tile cap, and the gathered
    // index list is unsorted with duplicates. Slots past `count` in each
    // output row must stay untouched.
    Rng rng(110);
    const size_t rows = 90;
    for (size_t dim : {size_t{1}, size_t{3}, size_t{4}, size_t{5},
                       size_t{63}, size_t{64}, size_t{65}, size_t{128},
                       size_t{129}, kDotMultiMaxDim, kDotMultiMaxDim + 1}) {
        Matrix keys(rows, dim, rng.gaussianVec(rows * dim));
        std::vector<uint32_t> idx;
        for (size_t i = 0; i < 23; ++i)
            idx.push_back(static_cast<uint32_t>((i * 41 + 7) % rows));
        idx.push_back(idx.front());
        const size_t count = idx.size(), stride = count + 3;
        const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
        for (size_t nq : {size_t{1}, size_t{2}, size_t{7}, size_t{8},
                          size_t{9}, size_t{17}}) {
            const auto qs = rng.gaussianVec(nq * dim);
            for (KernelBackend b : availableBackends()) {
                ScopedBackend guard(b);
                std::vector<float> got(nq * stride, -1e30f);
                batchDotScaleMulti(qs.data(), dim, nq, keys, idx.data(), 0,
                                   count, scale, got.data(), stride);
                for (size_t q = 0; q < nq; ++q) {
                    for (size_t j = 0; j < count; ++j)
                        EXPECT_EQ(got[q * stride + j],
                                  dot(qs.data() + q * dim,
                                      keys.row(idx[j]), dim) *
                                      scale)
                            << kernelBackendName(b) << " dim " << dim
                            << " nq " << nq << " q " << q << " j " << j;
                    for (size_t j = count; j < stride; ++j)
                        EXPECT_EQ(got[q * stride + j], -1e30f);
                }
            }
        }
    }
}

TEST(Kernels, WeightedSumMatchesNaiveLoop)
{
    // out += sum_j p[j] * v_j, accumulated into a NONZERO out in both
    // the gather and the range forms, against the naive ascending loop
    // (float multiply then float add per element).
    Rng rng(111);
    const size_t rows = 70;
    for (size_t dim : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{63}, size_t{64}, size_t{65}, size_t{72},
                       size_t{128}, size_t{129}, size_t{200}}) {
        Matrix values(rows, dim, rng.gaussianVec(rows * dim));
        const auto init = rng.gaussianVec(dim);
        std::vector<uint32_t> idx;
        for (size_t i = 0; i < 37; ++i)
            idx.push_back(static_cast<uint32_t>((i * 29 + 3) % rows));
        const auto probs = rng.gaussianVec(idx.size());
        const size_t first = 5;

        std::vector<float> ref_at = init, ref_range = init;
        for (size_t j = 0; j < idx.size(); ++j)
            for (size_t d = 0; d < dim; ++d) {
                ref_at[d] += probs[j] * values(idx[j], d);
                ref_range[d] += probs[j] * values(first + j, d);
            }

        for (KernelBackend b : availableBackends()) {
            ScopedBackend guard(b);
            std::vector<float> at = init, range = init;
            batchWeightedSum(probs.data(), values, idx.data(), 0,
                             idx.size(), at.data());
            batchWeightedSum(probs.data(), values, nullptr, first,
                             idx.size(), range.data());
            for (size_t d = 0; d < dim; ++d) {
                EXPECT_EQ(at[d], ref_at[d])
                    << kernelBackendName(b) << " dim " << dim << " d " << d;
                EXPECT_EQ(range[d], ref_range[d])
                    << kernelBackendName(b) << " dim " << dim << " d " << d;
            }
            // An empty list leaves out alone.
            std::vector<float> none = init;
            batchWeightedSum(probs.data(), values, nullptr, 0, 0,
                             none.data());
            EXPECT_EQ(none, init);
        }
    }
}

} // namespace
} // namespace longsight
