/**
 * @file
 * Packed one-bit sign quantization of float vectors — the data type
 * Sign-Concordance Filtering operates on. A SignBits value stores one
 * bit per dimension (1 = non-negative); concordance between two vectors
 * is D minus the popcount of their XOR, exactly the quantity DReX's PIM
 * Filtering Units compute in hardware.
 */

#ifndef LONGSIGHT_TENSOR_SIGNBITS_HH
#define LONGSIGHT_TENSOR_SIGNBITS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace longsight {

/**
 * Pack the sign pattern of v[0..dim) into words ((dim + 63) / 64 of
 * them, fully overwritten): bit i set iff v[i] >= 0, so -0.0f and
 * +0.0f set the bit, NaN clears it, and infinities and denormals
 * follow their sign. The repo's one sign-packing routine: SignBits and
 * SignMatrix rows are packed by it, and callers that keep packed
 * queries in scratch memory call it directly instead of constructing
 * a SignBits (which allocates).
 */
void packSigns(const float *v, size_t dim, uint64_t *words);

/**
 * Sign-bit quantization of a float vector.
 */
class SignBits
{
  public:
    SignBits() = default;

    /** Quantize: bit i set iff v[i] >= 0 (see packSigns). */
    SignBits(const float *v, size_t dim);

    size_t dim() const { return dim_; }

    /** Bit i as a bool. */
    bool bit(size_t i) const;

    /** Raw packed words (64 bits each, little-endian bit order). */
    const std::vector<uint64_t> &words() const { return words_; }

    /**
     * Number of dimensions where this and other carry the same sign.
     * Both must have the same dimension.
     */
    int concordance(const SignBits &other) const;

    bool operator==(const SignBits &other) const = default;

  private:
    size_t dim_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Sign-quantize every row of a (count x dim) float array.
 */
std::vector<SignBits> packSignRows(const float *data, size_t count,
                                   size_t dim);

} // namespace longsight

#endif // LONGSIGHT_TENSOR_SIGNBITS_HH
