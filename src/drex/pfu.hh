/**
 * @file
 * PIM Filtering Unit (PFU) model (§7.1, §7.4). One PFU sits next to
 * each LPDDR bank, reads the bit-transposed Key Sign Object through
 * the 128-bit interconnect between local and global row buffers (one
 * dimension across 128 keys per cycle), and emits a 128-bit bitmap
 * per query marking keys whose sign concordance meets the threshold.
 *
 * The functional output is bit-exact with software SCF (tested), and
 * the timing uses the paper's synthesized constant: bitmap generation
 * takes d x 1.25 ns per query (§8.2).
 */

#ifndef LONGSIGHT_DREX_PFU_HH
#define LONGSIGHT_DREX_PFU_HH

#include <array>
#include <cstdint>
#include <vector>

#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"
#include "util/units.hh"

namespace longsight {

/**
 * A 128-wide filter bitmap (one bit per key in the block).
 */
class Bitmap128
{
  public:
    Bitmap128() = default;

    /** Adopt two packed words (bits 0..63, 64..127) — the per-query
     *  shape concordanceBitmapMulti emits. */
    static Bitmap128 fromWords(uint64_t lo, uint64_t hi);

    void set(uint32_t i);
    bool test(uint32_t i) const;
    uint32_t popcount() const;

    /** Indices of set bits, offset by `base`. */
    std::vector<uint32_t> setIndices(uint32_t base = 0) const;

    bool operator==(const Bitmap128 &o) const = default;

  private:
    std::array<uint64_t, 2> words_{0, 0};
};

/**
 * Per-bank PIM filtering unit.
 */
class Pfu
{
  public:
    /** Hardware block width: keys filtered per epoch per bank. */
    static constexpr uint32_t kBlockKeys = 128;

    /** Maximum queries per offload the PFU datapath supports (§7.1). */
    static constexpr uint32_t kMaxQueries = 16;

    /**
     * Filter one block: for each query, bit i is set iff
     * concordance(query, keys[i]) >= threshold. keys.size() <= 128.
     * Scalar reference implementation (key-major SignBits walk).
     */
    static std::vector<Bitmap128>
    filterBlock(const std::vector<SignBits> &query_signs,
                const SignBits *keys, uint32_t num_keys, int threshold);

    /**
     * Same filter over a packed SignMatrix burst: keys are rows
     * [begin, begin + num_keys) of `keys`. Runs the runtime-dispatched
     * batch kernel (AVX2/NEON when available); bit-identical to the
     * SignBits overload, which tests enforce.
     */
    static std::vector<Bitmap128>
    filterBlock(const std::vector<SignBits> &query_signs,
                const SignMatrix &keys, size_t begin, uint32_t num_keys,
                int threshold);

    /**
     * Allocation-free flavour over caller storage (scratch memory in
     * the NMA hot loop): queries are `num_queries` pre-packed
     * sign-word rows of `words_per_query` words each (see packSigns),
     * and `bitmaps` must hold num_queries entries. Bit-identical to
     * the other overloads.
     */
    static void filterBlock(const uint64_t *query_words,
                            size_t words_per_query, uint32_t num_queries,
                            const SignMatrix &keys, size_t begin,
                            uint32_t num_keys, int threshold,
                            Bitmap128 *bitmaps);

    /**
     * Bitmap generation latency: one 128-wide dimension comparison per
     * cycle at 1.25 ns, times the number of queries in the group.
     */
    static Tick bitmapGenTime(uint32_t head_dim, uint32_t num_queries);
};

} // namespace longsight

#endif // LONGSIGHT_DREX_PFU_HH
