/**
 * @file
 * NEON batch-scan backend (aarch64). Concordance XORs 128 bits of
 * packed signs per op and folds vcntq_u8 byte popcounts with vaddvq;
 * survivor order and counts are bit-identical to the scalar backend.
 * The dot kernel keeps the scalar ascending-dimension double
 * accumulation (NEON's two-lane f64 gives no win at head dims 64/128
 * once the bit-identity contract rules out reassociation), so scores
 * are trivially identical too.
 *
 * The fused span driver (batchScoreSelectMultiSpans) composes this
 * backend's scan and dot ops, so aarch64 gets the fused decode hot
 * path at full feature parity with AVX2 — no scalar-only fallback is
 * involved.
 */

#include "tensor/kernels.hh"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <bit>

namespace longsight {
namespace detail {
namespace {

inline int
rowMismatches(const uint64_t *q, const uint64_t *row, size_t wpr)
{
    int mismatches = 0;
    size_t w = 0;
    for (; w + 2 <= wpr; w += 2) {
        const uint8x16_t x = veorq_u8(
            vreinterpretq_u8_u64(vld1q_u64(row + w)),
            vreinterpretq_u8_u64(vld1q_u64(q + w)));
        mismatches += vaddvq_u8(vcntq_u8(x));
    }
    for (; w < wpr; ++w)
        mismatches += std::popcount(row[w] ^ q[w]);
    return mismatches;
}

void
neonConcordance(const uint64_t *q, const uint64_t *signs, size_t wpr,
                size_t rows, int dim, int32_t *out)
{
    for (size_t r = 0; r < rows; ++r)
        out[r] = dim - rowMismatches(q, signs + r * wpr, wpr);
}

void
neonDotAt(const float *q, const float *keys, size_t stride, size_t dim,
          const uint32_t *idx, size_t first, size_t count, float scale,
          float *out)
{
    for (size_t j = 0; j < count; ++j) {
        const size_t row = idx ? idx[j] : first + j;
        const float *k = keys + row * stride;
        double acc = 0.0;
        for (size_t i = 0; i < dim; ++i)
            acc += static_cast<double>(q[i]) * static_cast<double>(k[i]);
        out[j] = static_cast<float>(acc) * scale;
    }
}

void
neonScanMulti(const uint64_t *qs, size_t num_queries,
              const uint64_t *signs, size_t wpr, size_t rows, int dim,
              int threshold, uint32_t base, uint32_t *out, size_t stride,
              size_t *counts)
{
    // Row-outer walk: the 128-bit sign row loads are shared across all
    // queries (one pass over the sign stream); per query, branchless
    // store-then-advance compaction (capacity contract in KernelOps),
    // mirroring the AVX2 backend's shape.
    const int limit = dim - threshold;
    for (size_t r = 0; r < rows; ++r) {
        const uint64_t *row = signs + r * wpr;
        for (size_t q = 0; q < num_queries; ++q) {
            uint32_t *dst = out + q * stride;
            size_t n = counts[q];
            dst[n] = base + static_cast<uint32_t>(r);
            n += rowMismatches(qs + q * wpr, row, wpr) <= limit ? 1 : 0;
            counts[q] = n;
        }
    }
}

void
neonBitmapMulti(const uint64_t *qs, size_t num_queries,
                const uint64_t *signs, size_t wpr, size_t rows, int dim,
                int threshold, uint64_t *out)
{
    for (size_t i = 0; i < 2 * num_queries; ++i)
        out[i] = 0;
    const int limit = dim - threshold;
    for (size_t r = 0; r < rows; ++r) {
        const uint64_t *row = signs + r * wpr;
        const uint64_t bit = uint64_t{1} << (r & 63);
        for (size_t q = 0; q < num_queries; ++q) {
            if (rowMismatches(qs + q * wpr, row, wpr) <= limit)
                out[q * 2 + (r >> 6)] |= bit;
        }
    }
}

void
neonSignReduce(const uint64_t *signs, size_t wpr, size_t rows,
               uint64_t *out)
{
    // Carry-save majority vote across two word columns per vector —
    // the same bit-sliced counter-plane scheme as the AVX2 backend
    // (see avx2SignReduce); bit_width(rows) planes absorb every carry
    // because counts never exceed `rows`.
    const size_t planes_n = std::bit_width(rows);
    const uint64_t t = (rows + 1) / 2;
    size_t w = 0;
    for (; w + 2 <= wpr; w += 2) {
        uint64x2_t planes[64];
        for (size_t k = 0; k < planes_n; ++k)
            planes[k] = vdupq_n_u64(0);
        for (size_t r = 0; r < rows; ++r) {
            uint64x2_t carry = vld1q_u64(signs + r * wpr + w);
            for (size_t k = 0; k < planes_n; ++k) {
                const uint64x2_t sum = veorq_u64(planes[k], carry);
                carry = vandq_u64(planes[k], carry);
                planes[k] = sum;
            }
        }
        uint64x2_t ge = vdupq_n_u64(0);
        uint64x2_t eq = vdupq_n_u64(~uint64_t{0});
        for (size_t k = planes_n; k-- > 0;) {
            if ((t >> k) & 1) {
                eq = vandq_u64(eq, planes[k]);
            } else {
                ge = vorrq_u64(ge, vandq_u64(eq, planes[k]));
                eq = vbicq_u64(eq, planes[k]);
            }
        }
        vst1q_u64(out + w, vorrq_u64(ge, eq));
    }
    for (; w < wpr; ++w)
        out[w] = signReduceColumnCsa(signs, wpr, rows, w);
}

void
neonInt8DotAt(const int8_t *q, const int8_t *keys, size_t stride,
              size_t dim, const uint32_t *idx, size_t first,
              size_t count, int32_t *out)
{
    // vmull_s8 widens 8 products to i16 (max |p| = 16129, sums of two
    // fit easily), vpadalq_s16 accumulates pairs into i32 lanes.
    // Integer math — exact, so bit-identical to scalar by
    // construction.
    for (size_t j = 0; j < count; ++j) {
        const size_t row = idx ? idx[j] : first + j;
        const int8_t *k = keys + row * stride;
        int32x4_t acc = vdupq_n_s32(0);
        size_t i = 0;
        for (; i + 16 <= dim; i += 16) {
            const int8x16_t qv = vld1q_s8(q + i);
            const int8x16_t kv = vld1q_s8(k + i);
            const int16x8_t lo =
                vmull_s8(vget_low_s8(qv), vget_low_s8(kv));
            const int16x8_t hi =
                vmull_s8(vget_high_s8(qv), vget_high_s8(kv));
            acc = vpadalq_s16(acc, lo);
            acc = vpadalq_s16(acc, hi);
        }
        int32_t sum = vaddvq_s32(acc);
        for (; i < dim; ++i)
            sum += static_cast<int32_t>(q[i]) * static_cast<int32_t>(k[i]);
        out[j] = sum;
    }
}

// The multi-query dot and the value sum wrap the scalar reference ops:
// two-lane f64 gives no win under the ascending-chain contract (see
// neonDotAt), and wrapping keeps parity by construction.
void
neonDotMulti(const float *qs, size_t q_stride, size_t num_queries,
             const float *keys, size_t stride, size_t dim,
             const uint32_t *idx, size_t first, size_t count, float scale,
             float *out, size_t out_stride)
{
    scalarKernelOps()->dotMulti(qs, q_stride, num_queries, keys, stride,
                                dim, idx, first, count, scale, out,
                                out_stride);
}

void
neonWeightedSum(const float *p, const float *values, size_t stride,
                size_t dim, const uint32_t *idx, size_t first, size_t count,
                float *out)
{
    scalarKernelOps()->weightedSum(p, values, stride, dim, idx, first, count,
                                   out);
}

const KernelOps kNeonOps = {neonConcordance, neonDotAt,      neonScanMulti,
                            neonBitmapMulti, neonSignReduce, neonInt8DotAt,
                            neonDotMulti,    neonWeightedSum};

} // namespace

const KernelOps *
neonKernelOps()
{
    return &kNeonOps;
}

} // namespace detail
} // namespace longsight

#else // !aarch64

namespace longsight {
namespace detail {

const KernelOps *
neonKernelOps()
{
    return nullptr;
}

} // namespace detail
} // namespace longsight

#endif
