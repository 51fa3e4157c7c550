/**
 * @file
 * AVX2 batch-scan backend. Compiled into every x86-64 binary behind
 * function-level target attributes (no -mavx2 global flag needed) and
 * selected at runtime only when __builtin_cpu_supports("avx2") says
 * the host can execute it.
 *
 * Concordance uses the classic vpshufb nibble-LUT popcount with a
 * vpsadbw horizontal fold, giving per-64-bit-lane popcounts — four
 * packed sign rows (d <= 64), two rows (d <= 128), or four words of
 * one wide row per 256-bit op. Survivor extraction compares lane
 * counts against (dim - threshold) and walks the movemask bits in
 * ascending row order, so survivor lists are bit-identical to the
 * scalar backend.
 *
 * The dot kernel processes four survivor keys at once: 4x4 float
 * blocks are transposed to dimension-major vectors and accumulated
 * with separate vmulpd/vaddpd (never FMA) so every key's sum is
 * evaluated in the same ascending-dimension double-precision order as
 * the scalar dot — scores are bit-identical across backends. The
 * multi-query dot instead puts up to four queries in the lanes of one
 * ymm (eight keys in flight) or up to eight in two, and broadcasts each
 * key element, so it needs no transpose; the weighted value sum keeps a
 * 64-float slice of its output in eight ymm accumulators (float
 * multiply, then float add).
 *
 * The multi-query scan additionally carries an AVX-512 VPOPCNTDQ fast
 * path (runtime-gated, 4 queries per vector) for the packed d <= 64
 * and d <= 128 layouts; see avx512ScanMulti4W*. It is internal to
 * this backend — the public backend name stays "avx2" — and exact,
 * so the bit-identity contract is unaffected.
 */

#include "tensor/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace longsight {
namespace detail {
namespace {

#define LS_AVX2 __attribute__((target("avx2,popcnt")))

/** Per-64-bit-lane popcount of a 256-bit vector. */
LS_AVX2 inline __m256i
popcount64x4(__m256i x)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i nibble = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(x, nibble);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(x, 4), nibble);
    const __m256i cnt8 = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(cnt8, _mm256_setzero_si256());
}

/** Mismatch popcount of one row against the query (any width). */
LS_AVX2 inline int
rowMismatches(const uint64_t *q, const uint64_t *row, size_t wpr)
{
    int mismatches = 0;
    size_t w = 0;
    for (; w + 4 <= wpr; w += 4) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row + w)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(q + w)));
        const __m256i cnt = popcount64x4(x);
        mismatches += static_cast<int>(
            _mm256_extract_epi64(cnt, 0) + _mm256_extract_epi64(cnt, 1) +
            _mm256_extract_epi64(cnt, 2) + _mm256_extract_epi64(cnt, 3));
    }
    for (; w < wpr; ++w)
        mismatches += std::popcount(row[w] ^ q[w]);
    return mismatches;
}

LS_AVX2 void
avx2Concordance(const uint64_t *q, const uint64_t *signs, size_t wpr,
                size_t rows, int dim, int32_t *out)
{
    size_t r = 0;
    if (wpr == 1) {
        const __m256i qv = _mm256_set1_epi64x(
            static_cast<long long>(q[0]));
        alignas(32) long long cnt4[4];
        for (; r + 4 <= rows; r += 4) {
            const __m256i x = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(signs + r)),
                qv);
            _mm256_store_si256(reinterpret_cast<__m256i *>(cnt4),
                               popcount64x4(x));
            for (int j = 0; j < 4; ++j)
                out[r + j] = dim - static_cast<int32_t>(cnt4[j]);
        }
    } else if (wpr == 2) {
        const __m256i qv = _mm256_setr_epi64x(
            static_cast<long long>(q[0]), static_cast<long long>(q[1]),
            static_cast<long long>(q[0]), static_cast<long long>(q[1]));
        alignas(32) long long cnt4[4];
        for (; r + 2 <= rows; r += 2) {
            const __m256i x = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                    signs + r * 2)),
                qv);
            _mm256_store_si256(reinterpret_cast<__m256i *>(cnt4),
                               popcount64x4(x));
            out[r + 0] =
                dim - static_cast<int32_t>(cnt4[0] + cnt4[1]);
            out[r + 1] =
                dim - static_cast<int32_t>(cnt4[2] + cnt4[3]);
        }
    }
    for (; r < rows; ++r)
        out[r] = dim - rowMismatches(q, signs + r * wpr, wpr);
}

/**
 * One-query scan: branchless compaction into the caller's list
 * (capacity >= rows): store every candidate index unconditionally and
 * advance the cursor by the pass bit. At typical ~50% survivor rates
 * the mispredicted per-row branch costs more than the wasted stores.
 * The multi-query body below serves one query correctly too, but its
 * per-query inner loop re-broadcasts the query and reloads the cursor
 * every row, so a lone query takes this tighter loop instead.
 */
LS_AVX2 size_t
avx2Scan(const uint64_t *q, const uint64_t *signs, size_t wpr,
         size_t rows, int dim, int threshold, uint32_t base,
         uint32_t *out)
{
    uint32_t *dst = out;
    size_t n = 0;

    const long long limit = static_cast<long long>(dim) -
        static_cast<long long>(threshold);
    size_t r = 0;
    if (wpr == 1) {
        const __m256i qv = _mm256_set1_epi64x(
            static_cast<long long>(q[0]));
        const __m256i lim = _mm256_set1_epi64x(limit);
        for (; r + 4 <= rows; r += 4) {
            const __m256i x = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(signs + r)),
                qv);
            const __m256i cnt = popcount64x4(x);
            const int pass = ~_mm256_movemask_pd(_mm256_castsi256_pd(
                                 _mm256_cmpgt_epi64(cnt, lim))) &
                0xf;
            dst[n] = base + static_cast<uint32_t>(r);
            n += pass & 1;
            dst[n] = base + static_cast<uint32_t>(r) + 1;
            n += (pass >> 1) & 1;
            dst[n] = base + static_cast<uint32_t>(r) + 2;
            n += (pass >> 2) & 1;
            dst[n] = base + static_cast<uint32_t>(r) + 3;
            n += (pass >> 3) & 1;
        }
    } else if (wpr == 2) {
        const __m256i qv = _mm256_setr_epi64x(
            static_cast<long long>(q[0]), static_cast<long long>(q[1]),
            static_cast<long long>(q[0]), static_cast<long long>(q[1]));
        const __m256i lim = _mm256_set1_epi64x(limit);
        for (; r + 2 <= rows; r += 2) {
            const __m256i x = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                    signs + r * 2)),
                qv);
            const __m256i cnt = popcount64x4(x);
            const __m256i folded = _mm256_add_epi64(
                cnt, _mm256_shuffle_epi32(cnt, _MM_SHUFFLE(1, 0, 3, 2)));
            const int fail = _mm256_movemask_pd(_mm256_castsi256_pd(
                _mm256_cmpgt_epi64(folded, lim)));
            dst[n] = base + static_cast<uint32_t>(r);
            n += ~fail & 1;
            dst[n] = base + static_cast<uint32_t>(r) + 1;
            n += (~fail >> 2) & 1;
        }
    }
    for (; r < rows; ++r) {
        dst[n] = base + static_cast<uint32_t>(r);
        n += rowMismatches(q, signs + r * wpr, wpr) <= limit ? 1 : 0;
    }

    return n;
}

#define LS_AVX512 \
    __attribute__((target( \
        "avx512f,avx512bw,avx512vl,avx512vpopcntdq,bmi2,popcnt")))

/**
 * AVX-512 VPOPCNTDQ chunk kernels for the multi-query scan: four
 * queries ride in one vector (ymm for one-word rows, zmm for
 * two-word rows), so each row costs one broadcast + xor + vpopcntq +
 * compare for the WHOLE query chunk — the per-(query, row) nibble-LUT
 * popcount sequence the AVX2 path pays simply disappears. Survivor
 * emission stays per-query branchless store-then-advance in ascending
 * row order, so results remain bit-identical to the scalar backend.
 * Chunks of fewer than four queries keep the plain AVX2 bodies.
 */
LS_AVX512 inline void
avx512ScanMulti4W1(const uint64_t *qs, const uint64_t *signs,
                   size_t rows, long long limit, uint32_t base,
                   uint32_t *out, size_t stride, size_t *counts)
{
    // Four one-word queries in one ymm; pass bits land at 0..3.
    const __m256i qv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(qs));
    const __m256i lim = _mm256_set1_epi64x(limit);
    uint32_t *dst0 = out, *dst1 = out + stride;
    uint32_t *dst2 = out + 2 * stride, *dst3 = out + 3 * stride;
    size_t n0 = counts[0], n1 = counts[1], n2 = counts[2],
           n3 = counts[3];
    for (size_t r = 0; r < rows; ++r) {
        const __m256i rowv = _mm256_set1_epi64x(
            static_cast<long long>(signs[r]));
        const __m256i cnt =
            _mm256_popcnt_epi64(_mm256_xor_si256(qv, rowv));
        const unsigned pass =
            ~_mm256_cmpgt_epi64_mask(cnt, lim) & 0xfu;
        const uint32_t idx = base + static_cast<uint32_t>(r);
        dst0[n0] = idx;
        n0 += pass & 1;
        dst1[n1] = idx;
        n1 += (pass >> 1) & 1;
        dst2[n2] = idx;
        n2 += (pass >> 2) & 1;
        dst3[n3] = idx;
        n3 += (pass >> 3) & 1;
    }
    counts[0] = n0;
    counts[1] = n1;
    counts[2] = n2;
    counts[3] = n3;
}

/** One row of the d <= 128 layout against four queries: pass bits
 *  land at 0, 2, 4, 6 (the even lanes after the 64-bit pair fold).
 *  The maskz intrinsic forms are deliberate: the plain GCC
 *  broadcast/shuffle wrappers route through an undefined passthrough
 *  operand and trip -Wmaybe-uninitialized under -Werror. */
LS_AVX512 inline unsigned
avx512RowPass4W2(__m512i qv, __m512i lim, const uint64_t *row)
{
    const __m512i rowv = _mm512_maskz_broadcast_i32x4(
        static_cast<__mmask16>(-1),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(row)));
    const __m512i cnt = _mm512_popcnt_epi64(_mm512_xor_si512(qv, rowv));
    const __m512i folded = _mm512_add_epi64(
        cnt, _mm512_maskz_shuffle_epi32(static_cast<__mmask16>(-1), cnt,
                                        _MM_PERM_BADC));
    return ~_mm512_cmpgt_epi64_mask(folded, lim) & 0xffu;
}

LS_AVX512 inline void
avx512ScanMulti4W2(const uint64_t *qs, const uint64_t *signs,
                   size_t rows, long long limit, uint32_t base,
                   uint32_t *out, size_t stride, size_t *counts)
{
    // Four two-word queries in one zmm. Survivor emission works on
    // 8-row blocks: each row contributes one byte of pass bits to a
    // 64-bit accumulator, PEXT peels query q's column out as an 8-bit
    // mask, and VPCOMPRESSD stores that query's surviving indices in
    // ascending row order — ~5 ops per (query, block) instead of the
    // store-then-advance sequence per (query, row).
    const __m512i qv = _mm512_loadu_si512(qs);
    const __m512i lim = _mm512_set1_epi64(limit);
    const uint64_t column = 0x0101010101010101ULL;
    uint32_t *dst[4] = {out, out + stride, out + 2 * stride,
                        out + 3 * stride};
    size_t n[4] = {counts[0], counts[1], counts[2], counts[3]};
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    size_t r = 0;
    for (; r + 8 <= rows; r += 8) {
        uint64_t acc = 0;
        for (size_t j = 0; j < 8; ++j)
            acc |= static_cast<uint64_t>(
                       avx512RowPass4W2(qv, lim, signs + (r + j) * 2))
                << (8 * j);
        const __m256i idxv = _mm256_add_epi32(
            _mm256_set1_epi32(
                static_cast<int>(base + static_cast<uint32_t>(r))),
            lane);
        for (int q = 0; q < 4; ++q) {
            const __mmask8 m = static_cast<__mmask8>(
                _pext_u64(acc, column << (2 * q)));
            _mm256_mask_compressstoreu_epi32(dst[q] + n[q], m, idxv);
            n[q] += static_cast<unsigned>(__builtin_popcount(m));
        }
    }
    for (; r < rows; ++r) {
        const unsigned pass =
            avx512RowPass4W2(qv, lim, signs + r * 2);
        const uint32_t idx = base + static_cast<uint32_t>(r);
        for (int q = 0; q < 4; ++q) {
            dst[q][n[q]] = idx;
            n[q] += (pass >> (2 * q)) & 1;
        }
    }
    counts[0] = n[0];
    counts[1] = n[1];
    counts[2] = n[2];
    counts[3] = n[3];
}

bool
cpuHasAvx512Popcnt()
{
    return __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vpopcntdq") &&
        __builtin_cpu_supports("bmi2");
}

bool
avx512PopcntAvailable()
{
    static const bool supported = cpuHasAvx512Popcnt();
    return supported;
}

/**
 * Multi-query scan, AVX2 body: the outer loop loads each packed
 * sign-row vector ONCE and the inner loop runs it through every
 * query's XOR-popcount test, compacting survivors branchlessly into
 * per-query cursors — one pass over the sign stream instead of
 * num_queries passes.
 */
LS_AVX2 void
avx2ScanMultiImpl(const uint64_t *qs, size_t num_queries,
                  const uint64_t *signs, size_t wpr, size_t rows,
                  int dim, int threshold, uint32_t base, uint32_t *out,
                  size_t stride, size_t *counts)
{
    const long long limit = static_cast<long long>(dim) -
        static_cast<long long>(threshold);
    size_t r = 0;
    if (wpr == 1) {
        const __m256i lim = _mm256_set1_epi64x(limit);
        for (; r + 4 <= rows; r += 4) {
            const __m256i rowv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(signs + r));
            for (size_t q = 0; q < num_queries; ++q) {
                const __m256i x = _mm256_xor_si256(
                    rowv,
                    _mm256_set1_epi64x(static_cast<long long>(qs[q])));
                const __m256i cnt = popcount64x4(x);
                const int pass =
                    ~_mm256_movemask_pd(_mm256_castsi256_pd(
                        _mm256_cmpgt_epi64(cnt, lim))) &
                    0xf;
                uint32_t *dst = out + q * stride;
                size_t n = counts[q];
                dst[n] = base + static_cast<uint32_t>(r);
                n += pass & 1;
                dst[n] = base + static_cast<uint32_t>(r) + 1;
                n += (pass >> 1) & 1;
                dst[n] = base + static_cast<uint32_t>(r) + 2;
                n += (pass >> 2) & 1;
                dst[n] = base + static_cast<uint32_t>(r) + 3;
                n += (pass >> 3) & 1;
                counts[q] = n;
            }
        }
    } else if (wpr == 2) {
        const __m256i lim = _mm256_set1_epi64x(limit);
        for (; r + 2 <= rows; r += 2) {
            const __m256i rowv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(signs + r * 2));
            for (size_t q = 0; q < num_queries; ++q) {
                const __m256i qv = _mm256_setr_epi64x(
                    static_cast<long long>(qs[q * 2]),
                    static_cast<long long>(qs[q * 2 + 1]),
                    static_cast<long long>(qs[q * 2]),
                    static_cast<long long>(qs[q * 2 + 1]));
                const __m256i cnt =
                    popcount64x4(_mm256_xor_si256(rowv, qv));
                const __m256i folded = _mm256_add_epi64(
                    cnt,
                    _mm256_shuffle_epi32(cnt, _MM_SHUFFLE(1, 0, 3, 2)));
                const int fail = _mm256_movemask_pd(_mm256_castsi256_pd(
                    _mm256_cmpgt_epi64(folded, lim)));
                uint32_t *dst = out + q * stride;
                size_t n = counts[q];
                dst[n] = base + static_cast<uint32_t>(r);
                n += ~fail & 1;
                dst[n] = base + static_cast<uint32_t>(r) + 1;
                n += (~fail >> 2) & 1;
                counts[q] = n;
            }
        }
    }
    for (; r < rows; ++r) {
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

/**
 * Multi-query scan entry: peel 4-query chunks onto the AVX-512
 * VPOPCNTDQ kernels when the host has them, leaving any remainder
 * (and any other row width) to the AVX2 bodies — avx2Scan for a lone
 * query. Queries are independent, so splitting the set across kernels
 * preserves each query's survivor list exactly.
 */
LS_AVX2 void
avx2ScanMulti(const uint64_t *qs, size_t num_queries,
              const uint64_t *signs, size_t wpr, size_t rows, int dim,
              int threshold, uint32_t base, uint32_t *out, size_t stride,
              size_t *counts)
{
    size_t q0 = 0;
    if ((wpr == 1 || wpr == 2) && avx512PopcntAvailable()) {
        const long long limit = static_cast<long long>(dim) -
            static_cast<long long>(threshold);
        for (; q0 + 4 <= num_queries; q0 += 4) {
            if (wpr == 1)
                avx512ScanMulti4W1(qs + q0, signs, rows, limit, base,
                                   out + q0 * stride, stride,
                                   counts + q0);
            else
                avx512ScanMulti4W2(qs + q0 * 2, signs, rows, limit,
                                   base, out + q0 * stride, stride,
                                   counts + q0);
        }
    }
    if (q0 + 1 == num_queries)
        counts[q0] += avx2Scan(qs + q0 * wpr, signs, wpr, rows, dim,
                               threshold, base,
                               out + q0 * stride + counts[q0]);
    else if (q0 < num_queries)
        avx2ScanMultiImpl(qs + q0 * wpr, num_queries - q0, signs, wpr,
                          rows, dim, threshold, base, out + q0 * stride,
                          stride, counts + q0);
}

LS_AVX2 void
avx2BitmapMulti(const uint64_t *qs, size_t num_queries,
                const uint64_t *signs, size_t wpr, size_t rows, int dim,
                int threshold, uint64_t *out)
{
    for (size_t i = 0; i < 2 * num_queries; ++i)
        out[i] = 0;
    const long long limit = static_cast<long long>(dim) -
        static_cast<long long>(threshold);
    size_t r = 0;
    if (wpr == 1) {
        const __m256i lim = _mm256_set1_epi64x(limit);
        for (; r + 4 <= rows; r += 4) {
            const __m256i rowv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(signs + r));
            for (size_t q = 0; q < num_queries; ++q) {
                const __m256i x = _mm256_xor_si256(
                    rowv,
                    _mm256_set1_epi64x(static_cast<long long>(qs[q])));
                const int pass =
                    ~_mm256_movemask_pd(_mm256_castsi256_pd(
                        _mm256_cmpgt_epi64(popcount64x4(x), lim))) &
                    0xf;
                // r is a multiple of 4, so all 4 bits land in one word.
                out[q * 2 + (r >> 6)] |= static_cast<uint64_t>(pass)
                    << (r & 63);
            }
        }
    } else if (wpr == 2) {
        const __m256i lim = _mm256_set1_epi64x(limit);
        for (; r + 2 <= rows; r += 2) {
            const __m256i rowv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(signs + r * 2));
            for (size_t q = 0; q < num_queries; ++q) {
                const __m256i qv = _mm256_setr_epi64x(
                    static_cast<long long>(qs[q * 2]),
                    static_cast<long long>(qs[q * 2 + 1]),
                    static_cast<long long>(qs[q * 2]),
                    static_cast<long long>(qs[q * 2 + 1]));
                const __m256i cnt =
                    popcount64x4(_mm256_xor_si256(rowv, qv));
                const __m256i folded = _mm256_add_epi64(
                    cnt,
                    _mm256_shuffle_epi32(cnt, _MM_SHUFFLE(1, 0, 3, 2)));
                const int fail = _mm256_movemask_pd(_mm256_castsi256_pd(
                    _mm256_cmpgt_epi64(folded, lim)));
                const uint64_t pass =
                    (~fail & 1) | ((~fail >> 1) & 2);
                out[q * 2 + (r >> 6)] |= pass << (r & 63);
            }
        }
    }
    for (; r < rows; ++r) {
        const uint64_t *row = signs + r * wpr;
        const uint64_t bit = uint64_t{1} << (r & 63);
        for (size_t q = 0; q < num_queries; ++q) {
            if (rowMismatches(qs + q * wpr, row, wpr) <= limit)
                out[q * 2 + (r >> 6)] |= bit;
        }
    }
}

/** Transposed 4-key dot block; each lane's accumulation order is the
 *  scalar ascending-dimension order (mul then add, no FMA). */
LS_AVX2 inline void
dot4Keys(const float *q, const float *k0, const float *k1,
         const float *k2, const float *k3, size_t dim, float scale,
         float *out0, float *out1, float *out2, float *out3)
{
    __m256d acc = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= dim; i += 4) {
        const __m256d a0 = _mm256_cvtps_pd(_mm_loadu_ps(k0 + i));
        const __m256d a1 = _mm256_cvtps_pd(_mm_loadu_ps(k1 + i));
        const __m256d a2 = _mm256_cvtps_pd(_mm_loadu_ps(k2 + i));
        const __m256d a3 = _mm256_cvtps_pd(_mm_loadu_ps(k3 + i));
        const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
        const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
        const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
        const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
        const __m256d d0 = _mm256_permute2f128_pd(t0, t2, 0x20);
        const __m256d d1 = _mm256_permute2f128_pd(t1, t3, 0x20);
        const __m256d d2 = _mm256_permute2f128_pd(t0, t2, 0x31);
        const __m256d d3 = _mm256_permute2f128_pd(t1, t3, 0x31);
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(
                     _mm256_set1_pd(static_cast<double>(q[i + 0])), d0));
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(
                     _mm256_set1_pd(static_cast<double>(q[i + 1])), d1));
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(
                     _mm256_set1_pd(static_cast<double>(q[i + 2])), d2));
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(
                     _mm256_set1_pd(static_cast<double>(q[i + 3])), d3));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    for (; i < dim; ++i) {
        const double qd = static_cast<double>(q[i]);
        lanes[0] += qd * static_cast<double>(k0[i]);
        lanes[1] += qd * static_cast<double>(k1[i]);
        lanes[2] += qd * static_cast<double>(k2[i]);
        lanes[3] += qd * static_cast<double>(k3[i]);
    }
    *out0 = static_cast<float>(lanes[0]) * scale;
    *out1 = static_cast<float>(lanes[1]) * scale;
    *out2 = static_cast<float>(lanes[2]) * scale;
    *out3 = static_cast<float>(lanes[3]) * scale;
}

LS_AVX2 inline float
dot1Key(const float *q, const float *k, size_t dim, float scale)
{
    double acc = 0.0;
    for (size_t i = 0; i < dim; ++i)
        acc += static_cast<double>(q[i]) * static_cast<double>(k[i]);
    return static_cast<float>(acc) * scale;
}

LS_AVX2 void
avx2DotAt(const float *q, const float *keys, size_t stride, size_t dim,
          const uint32_t *idx, size_t first, size_t count, float scale,
          float *out)
{
    size_t j = 0;
    for (; j + 4 <= count; j += 4) {
        const float *k0 =
            keys + (idx ? idx[j + 0] : first + j + 0) * stride;
        const float *k1 =
            keys + (idx ? idx[j + 1] : first + j + 1) * stride;
        const float *k2 =
            keys + (idx ? idx[j + 2] : first + j + 2) * stride;
        const float *k3 =
            keys + (idx ? idx[j + 3] : first + j + 3) * stride;
        dot4Keys(q, k0, k1, k2, k3, dim, scale, out + j, out + j + 1,
                 out + j + 2, out + j + 3);
    }
    for (; j < count; ++j) {
        const size_t row = idx ? idx[j] : first + j;
        out[j] = dot1Key(q, keys + row * stride, dim, scale);
    }
}

/** Widen one key row to double so the dot loop broadcasts each element
 *  straight from memory. */
LS_AVX2 inline void
widenRow(const float *k, size_t dim, double *out)
{
    size_t i = 0;
    for (; i + 4 <= dim; i += 4)
        _mm256_storeu_pd(out + i, _mm256_cvtps_pd(_mm_loadu_ps(k + i)));
    for (; i < dim; ++i)
        out[i] = static_cast<double>(k[i]);
}

/** Key row j of a dotAt-style idx/first addressing. */
inline const float *
keyRow(const float *keys, size_t stride, const uint32_t *idx, size_t first,
       size_t j)
{
    return keys + (idx ? idx[j] : first + j) * stride;
}

/** Scale four keys' 4-query double sums to float and transpose them,
 *  so query q's four scores land contiguously at out + q *
 *  out_stride. */
LS_AVX2 inline void
storeKeys4(__m256d a0, __m256d a1, __m256d a2, __m256d a3, float scale,
           size_t nq, float *out, size_t out_stride)
{
    const __m128 s = _mm_set1_ps(scale);
    __m128 r0 = _mm_mul_ps(_mm256_cvtpd_ps(a0), s);
    __m128 r1 = _mm_mul_ps(_mm256_cvtpd_ps(a1), s);
    __m128 r2 = _mm_mul_ps(_mm256_cvtpd_ps(a2), s);
    __m128 r3 = _mm_mul_ps(_mm256_cvtpd_ps(a3), s);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    const __m128 rows[4] = {r0, r1, r2, r3};
    for (size_t q = 0; q < nq; ++q)
        _mm_storeu_ps(out + q * out_stride, rows[q]);
}

/** acc + q * broadcast(*k): a double multiply, then a double add. */
LS_AVX2 inline __m256d
mulAdd(__m256d acc, __m256d q, const double *k)
{
    return _mm256_add_pd(acc, _mm256_mul_pd(q, _mm256_broadcast_sd(k)));
}

/**
 * Eight widened keys against one tile of up to four queries: eight
 * accumulators, so the dependent adds of one lane never stall the
 * pipeline. qt is the dim-major tile, four doubles per dimension;
 * query q's eight scores land at out + q * out_stride.
 */
LS_AVX2 inline void
tileDot8Keys(const double *qt, const double (*kd)[kDotMultiMaxDim],
             size_t dim, float scale, size_t nq, float *out,
             size_t out_stride)
{
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    __m256d a4 = _mm256_setzero_pd(), a5 = _mm256_setzero_pd();
    __m256d a6 = _mm256_setzero_pd(), a7 = _mm256_setzero_pd();
    for (size_t i = 0; i < dim; ++i) {
        const __m256d q = _mm256_load_pd(qt + i * 4);
        a0 = mulAdd(a0, q, kd[0] + i);
        a1 = mulAdd(a1, q, kd[1] + i);
        a2 = mulAdd(a2, q, kd[2] + i);
        a3 = mulAdd(a3, q, kd[3] + i);
        a4 = mulAdd(a4, q, kd[4] + i);
        a5 = mulAdd(a5, q, kd[5] + i);
        a6 = mulAdd(a6, q, kd[6] + i);
        a7 = mulAdd(a7, q, kd[7] + i);
    }
    storeKeys4(a0, a1, a2, a3, scale, nq, out, out_stride);
    storeKeys4(a4, a5, a6, a7, scale, nq, out + 4, out_stride);
}

/** One widened key against one tile of up to four queries; query q's
 *  score lands at out[q * out_stride]. */
LS_AVX2 inline void
tileDot1Key(const double *qt, const double *kd, size_t dim, float scale,
            size_t nq, float *out, size_t out_stride)
{
    __m256d a = _mm256_setzero_pd();
    for (size_t i = 0; i < dim; ++i)
        a = mulAdd(a, _mm256_load_pd(qt + i * 4), kd + i);
    alignas(16) float lanes[4];
    _mm_store_ps(lanes, _mm_mul_ps(_mm256_cvtpd_ps(a), _mm_set1_ps(scale)));
    for (size_t q = 0; q < nq; ++q)
        out[q * out_stride] = lanes[q];
}

/**
 * Queries-in-lanes dot: the queries become dim-major double tiles of
 * four lanes, so each key element is broadcast once and multiplied
 * into every query's lane — no transpose. Keys are widened to double
 * eight at a time and kept in flight (tileDot8Keys), so a GQA group of
 * four fills every lane of one ymm; five to eight queries run the same
 * widened keys through a second tile. Every lane is dotRowScaled's
 * chain: ascending dimensions, double multiply then double add (never
 * FMA), then one float conversion and one float multiply by scale.
 * Lanes past num_queries hold zero queries and are never stored.
 */
LS_AVX2 void
avx2DotMulti(const float *qs, size_t q_stride, size_t num_queries,
             const float *keys, size_t stride, size_t dim,
             const uint32_t *idx, size_t first, size_t count, float scale,
             float *out, size_t out_stride)
{
    const size_t tiles = (num_queries + 3) / 4;
    alignas(32) double qt[kDotMultiQueries / 4][kDotMultiMaxDim * 4];
    for (size_t t = 0; t < tiles; ++t)
        for (size_t i = 0; i < dim; ++i)
            for (size_t q = 0; q < 4; ++q) {
                const size_t g = t * 4 + q;
                qt[t][i * 4 + q] = g < num_queries
                    ? static_cast<double>(qs[g * q_stride + i])
                    : 0.0;
            }
    alignas(32) double kd[8][kDotMultiMaxDim];
    size_t j = 0;
    for (; j + 8 <= count; j += 8) {
        for (size_t r = 0; r < 8; ++r)
            widenRow(keyRow(keys, stride, idx, first, j + r), dim, kd[r]);
        for (size_t t = 0; t < tiles; ++t)
            tileDot8Keys(qt[t], kd, dim, scale,
                         std::min<size_t>(4, num_queries - t * 4),
                         out + t * 4 * out_stride + j, out_stride);
    }
    for (; j < count; ++j) {
        widenRow(keyRow(keys, stride, idx, first, j), dim, kd[0]);
        for (size_t t = 0; t < tiles; ++t)
            tileDot1Key(qt[t], kd[0], dim, scale,
                        std::min<size_t>(4, num_queries - t * 4),
                        out + t * 4 * out_stride + j, out_stride);
    }
}

/**
 * out[d] += p[j] * v_j[d], j ascending: a 64-dimension slice of out
 * lives in eight ymm accumulators for the whole key list (one
 * broadcast of p[j], then a float multiply and a float add per
 * element, never fused), so out is loaded and stored once per slice
 * instead of once per key. Narrower remainders run one ymm, then
 * scalar, per pass — the per-element order is the same either way.
 */
LS_AVX2 void
avx2WeightedSum(const float *p, const float *values, size_t stride,
                size_t dim, const uint32_t *idx, size_t first, size_t count,
                float *out)
{
    // The eight accumulators are spelled out: -O2 does not unroll a
    // register array's loop, and an unrolled-away array would live on
    // the stack.
    size_t d = 0;
    for (; d + 64 <= dim; d += 64) {
        float *o = out + d;
        __m256 a0 = _mm256_loadu_ps(o), a1 = _mm256_loadu_ps(o + 8);
        __m256 a2 = _mm256_loadu_ps(o + 16), a3 = _mm256_loadu_ps(o + 24);
        __m256 a4 = _mm256_loadu_ps(o + 32), a5 = _mm256_loadu_ps(o + 40);
        __m256 a6 = _mm256_loadu_ps(o + 48), a7 = _mm256_loadu_ps(o + 56);
        for (size_t j = 0; j < count; ++j) {
            const float *v =
                values + (idx ? idx[j] : first + j) * stride + d;
            const __m256 pj = _mm256_broadcast_ss(p + j);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(pj, _mm256_loadu_ps(v)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(pj, _mm256_loadu_ps(v + 8)));
            a2 = _mm256_add_ps(a2,
                               _mm256_mul_ps(pj, _mm256_loadu_ps(v + 16)));
            a3 = _mm256_add_ps(a3,
                               _mm256_mul_ps(pj, _mm256_loadu_ps(v + 24)));
            a4 = _mm256_add_ps(a4,
                               _mm256_mul_ps(pj, _mm256_loadu_ps(v + 32)));
            a5 = _mm256_add_ps(a5,
                               _mm256_mul_ps(pj, _mm256_loadu_ps(v + 40)));
            a6 = _mm256_add_ps(a6,
                               _mm256_mul_ps(pj, _mm256_loadu_ps(v + 48)));
            a7 = _mm256_add_ps(a7,
                               _mm256_mul_ps(pj, _mm256_loadu_ps(v + 56)));
        }
        _mm256_storeu_ps(o, a0);
        _mm256_storeu_ps(o + 8, a1);
        _mm256_storeu_ps(o + 16, a2);
        _mm256_storeu_ps(o + 24, a3);
        _mm256_storeu_ps(o + 32, a4);
        _mm256_storeu_ps(o + 40, a5);
        _mm256_storeu_ps(o + 48, a6);
        _mm256_storeu_ps(o + 56, a7);
    }
    for (; d + 8 <= dim; d += 8) {
        __m256 acc = _mm256_loadu_ps(out + d);
        for (size_t j = 0; j < count; ++j) {
            const float *v =
                values + (idx ? idx[j] : first + j) * stride + d;
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(_mm256_broadcast_ss(p + j), _mm256_loadu_ps(v)));
        }
        _mm256_storeu_ps(out + d, acc);
    }
    for (; d < dim; ++d) {
        float acc = out[d];
        for (size_t j = 0; j < count; ++j)
            acc += p[j] * values[(idx ? idx[j] : first + j) * stride + d];
        out[d] = acc;
    }
}

#define LS_AVXVNNI \
    __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))

/**
 * AVX-512 VNNI int8 dot: vpdpbusd takes UNSIGNED x SIGNED bytes, so
 * the signed query is carried as |q| (vpabsb) and the key's sign is
 * folded in with a masked byte negate (sign(q) applied to k) — the
 * same abs/sign factoring as the AVX2 maddubs path below, but with
 * the multiply-accumulate collapsing to one instruction per 64
 * elements. Exact integer math, so bit-identity is free.
 */
LS_AVXVNNI inline int32_t
int8Dot1Vnni(const int8_t *q, const int8_t *k, size_t dim)
{
    __m512i acc = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 64 <= dim; i += 64) {
        const __m512i qv = _mm512_loadu_si512(q + i);
        const __m512i kv = _mm512_loadu_si512(k + i);
        const __m512i ua = _mm512_abs_epi8(qv);
        const __mmask64 neg = _mm512_movepi8_mask(qv);
        const __m512i sb =
            _mm512_mask_sub_epi8(kv, neg, _mm512_setzero_si512(), kv);
        acc = _mm512_dpbusd_epi32(acc, ua, sb);
    }
    // A plain store-and-sum: GCC's _mm512_reduce_add_epi32 expansion
    // trips -Wmaybe-uninitialized inside its own header under -Werror.
    // Integer addition is exact, so the order cannot change the sum.
    alignas(64) int32_t lanes[16];
    _mm512_store_si512(lanes, acc);
    int32_t sum = 0;
    for (int32_t lane : lanes)
        sum += lane;
    for (; i < dim; ++i)
        sum += static_cast<int32_t>(q[i]) * static_cast<int32_t>(k[i]);
    return sum;
}

LS_AVXVNNI void
vnniInt8DotAt(const int8_t *q, const int8_t *keys, size_t stride,
              size_t dim, const uint32_t *idx, size_t first,
              size_t count, int32_t *out)
{
    for (size_t j = 0; j < count; ++j) {
        const size_t row = idx ? idx[j] : first + j;
        out[j] = int8Dot1Vnni(q, keys + row * stride, dim);
    }
}

bool
cpuHasAvxVnni()
{
    return __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni");
}

bool
avxVnniAvailable()
{
    static const bool supported = cpuHasAvxVnni();
    return supported;
}

/** One int8 x int8 row dot via vpmaddubsw: |q| (unsigned) times
 *  sign(q)-adjusted k (signed) multiplies to q*k per element; the
 *  pairwise i16 sums peak at 2 * 127 * 127 = 32258 < 32767, so the
 *  saturating madd never saturates, and vpmaddwd widens to exact
 *  int32 lanes. */
LS_AVX2 inline int32_t
int8Dot1(const int8_t *q, const int8_t *k, size_t dim)
{
    __m256i acc = _mm256_setzero_si256();
    const __m256i ones = _mm256_set1_epi16(1);
    size_t i = 0;
    for (; i + 32 <= dim; i += 32) {
        const __m256i qv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(q + i));
        const __m256i kv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(k + i));
        const __m256i ua = _mm256_abs_epi8(qv);
        const __m256i sb = _mm256_sign_epi8(kv, qv);
        const __m256i p16 = _mm256_maddubs_epi16(ua, sb);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(p16, ones));
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    int32_t sum = _mm_cvtsi128_si32(s);
    for (; i < dim; ++i)
        sum += static_cast<int32_t>(q[i]) * static_cast<int32_t>(k[i]);
    return sum;
}

LS_AVX2 void
avx2Int8DotAt(const int8_t *q, const int8_t *keys, size_t stride,
              size_t dim, const uint32_t *idx, size_t first,
              size_t count, int32_t *out)
{
    // The VNNI kernel needs >= 64-element rows to beat maddubs;
    // splitting by dim (not per call site) keeps the decision
    // data-independent. Both paths are exact, so the choice cannot
    // change a result.
    if (dim >= 64 && avxVnniAvailable()) {
        vnniInt8DotAt(q, keys, stride, dim, idx, first, count, out);
        return;
    }
    for (size_t j = 0; j < count; ++j) {
        const size_t row = idx ? idx[j] : first + j;
        out[j] = int8Dot1(q, keys + row * stride, dim);
    }
}

LS_AVX2 void
avx2SignReduce(const uint64_t *signs, size_t wpr, size_t rows,
               uint64_t *out)
{
    // Carry-save majority vote, vectorized across four word columns:
    // bit-sliced binary counter planes accumulate every row with a
    // ripple-carry add, then each of the 256 bit positions is compared
    // against (rows + 1) / 2 MSB-plane-first. Counts never exceed
    // `rows`, so bit_width(rows) planes absorb every carry.
    const size_t planes_n = std::bit_width(rows);
    const uint64_t t = (rows + 1) / 2;
    size_t w = 0;
    for (; w + 4 <= wpr; w += 4) {
        __m256i planes[64];
        for (size_t k = 0; k < planes_n; ++k)
            planes[k] = _mm256_setzero_si256();
        for (size_t r = 0; r < rows; ++r) {
            __m256i carry = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(signs + r * wpr + w));
            for (size_t k = 0; k < planes_n; ++k) {
                const __m256i sum = _mm256_xor_si256(planes[k], carry);
                carry = _mm256_and_si256(planes[k], carry);
                planes[k] = sum;
            }
        }
        __m256i ge = _mm256_setzero_si256();
        __m256i eq = _mm256_set1_epi64x(-1);
        for (size_t k = planes_n; k-- > 0;) {
            if ((t >> k) & 1) {
                eq = _mm256_and_si256(eq, planes[k]);
            } else {
                ge = _mm256_or_si256(ge,
                                     _mm256_and_si256(eq, planes[k]));
                eq = _mm256_andnot_si256(planes[k], eq);
            }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + w),
                            _mm256_or_si256(ge, eq));
    }
    for (; w < wpr; ++w)
        out[w] = signReduceColumnCsa(signs, wpr, rows, w);
}

const KernelOps kAvx2Ops = {avx2Concordance, avx2DotAt,      avx2ScanMulti,
                            avx2BitmapMulti, avx2SignReduce, avx2Int8DotAt,
                            avx2DotMulti,    avx2WeightedSum};

bool
cpuHasAvx2()
{
    return __builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("popcnt");
}

} // namespace

const KernelOps *
avx2KernelOps()
{
    static const bool supported = cpuHasAvx2();
    return supported ? &kAvx2Ops : nullptr;
}

} // namespace detail
} // namespace longsight

#else // !x86

namespace longsight {
namespace detail {

const KernelOps *
avx2KernelOps()
{
    return nullptr;
}

} // namespace detail
} // namespace longsight

#endif
