/**
 * @file
 * Symmetric INT8 row quantization. §4 notes that DReX's in-memory
 * filtering "is compatible with any signed data type"; this is the
 * low-bit *estimation* side of that lever (the one DynaX pulls with
 * 4/6-bit keys, §3.2): AlgoEvaluator's INT8 filter family quantizes
 * queries and keys with it and ranks tokens by the exact int8 x int8
 * dot (batchInt8DotRange). The runtime scores survivors at full
 * precision; the DReX timing model's INT8 Key/Value Objects only count
 * bytes.
 */

#ifndef LONGSIGHT_TENSOR_QUANTIZED_HH
#define LONGSIGHT_TENSOR_QUANTIZED_HH

#include <cstddef>
#include <cstdint>

namespace longsight {

/**
 * Symmetric per-vector quantization (max-abs scaling) into caller
 * storage: out receives n int8s in [-127, 127] and *scale one float,
 * with v[i] ≈ out[i] * *scale. An all-zero vector gets scale 1 and a
 * zero payload.
 */
void quantizeInt8Into(const float *v, size_t n, int8_t *out, float *scale);

} // namespace longsight

#endif // LONGSIGHT_TENSOR_QUANTIZED_HH
