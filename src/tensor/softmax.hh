/**
 * @file
 * Numerically stable softmax helpers for attention-score vectors.
 */

#ifndef LONGSIGHT_TENSOR_SOFTMAX_HH
#define LONGSIGHT_TENSOR_SOFTMAX_HH

#include <cstddef>
#include <vector>

namespace longsight {

/** In-place stable softmax over the whole vector. */
void softmaxInPlace(std::vector<float> &scores);

/** In-place stable softmax over a raw span (scratch-memory flavour). */
void softmaxInPlace(float *scores, size_t n);

} // namespace longsight

#endif // LONGSIGHT_TENSOR_SOFTMAX_HH
