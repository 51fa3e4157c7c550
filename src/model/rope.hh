/**
 * @file
 * Rotary positional embedding (RoPE) in the Llama "half-split"
 * convention: dimension pairs (i, i + d/2) are rotated by an angle
 * position * theta^(-2i/d). RoPE matters to LongSight because it is
 * applied *after* the key/query projections, which is why the ITQ
 * rotation cannot be fused into the projection weights (§5.4) and why
 * key sign statistics vary with position.
 */

#ifndef LONGSIGHT_MODEL_ROPE_HH
#define LONGSIGHT_MODEL_ROPE_HH

#include <cstdint>
#include <vector>

namespace longsight {

/**
 * Precomputed RoPE angle tables for one head dimension.
 */
class Rope
{
  public:
    /**
     * @param head_dim even head dimension
     * @param theta_base frequency base (Llama-3 uses 500000)
     */
    explicit Rope(uint32_t head_dim, double theta_base = 500000.0);

    /** Rotate v (length headDim) in place for the given position. */
    void apply(float *v, uint64_t position) const;

    uint32_t headDim() const { return headDim_; }

  private:
    uint32_t headDim_;
    std::vector<double> invFreq_; //!< headDim/2 inverse frequencies
};

} // namespace longsight

#endif // LONGSIGHT_MODEL_ROPE_HH
