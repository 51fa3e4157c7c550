/**
 * @file
 * Symmetric INT8 row quantization for key vectors. §4 notes that
 * DReX's in-memory filtering "is compatible with any signed data
 * type"; this module provides the complementary *scoring-side*
 * reduction: storing Key Objects as INT8 (one scale per vector)
 * halves the bytes the NMA fetches per survivor, trading a bounded
 * score error — the same lever DynaX pulls with 4/6-bit keys (§3.2).
 */

#ifndef LONGSIGHT_TENSOR_QUANTIZED_HH
#define LONGSIGHT_TENSOR_QUANTIZED_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace longsight {

/**
 * An INT8-quantized vector: v[i] ≈ data[i] * scale.
 */
struct QuantizedVector
{
    std::vector<int8_t> data;
    float scale = 1.0f;

    /** Stored bytes (payload + scale). */
    size_t byteSize() const { return data.size() + sizeof(float); }
};

/** Symmetric per-vector quantization (max-abs scaling). */
QuantizedVector quantizeInt8(const float *v, size_t n);

/**
 * quantizeInt8 into caller storage (out: n int8s, scale: one float) —
 * the block-pool append path, which writes into a preallocated INT8
 * arena and cannot afford the QuantizedVector allocation. Bit-identical
 * payload and scale to quantizeInt8.
 */
void quantizeInt8Into(const float *v, size_t n, int8_t *out, float *scale);

/** Dequantized copy (for tests and error analysis). */
std::vector<float> dequantize(const QuantizedVector &q);

/** Mixed dot product: sum_i q[i]*scale * b[i]. */
float dotQuantized(const QuantizedVector &q, const float *b);

/** Raw-span flavour over arena storage; identical accumulation. */
float dotQuantized(const int8_t *data, float scale, const float *b,
                   size_t n);

/** Mean relative L2 error of quantizing each row of a matrix. */
double quantizationError(const Matrix &rows);

} // namespace longsight

#endif // LONGSIGHT_TENSOR_QUANTIZED_HH
