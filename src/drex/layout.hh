/**
 * @file
 * LongSight's logical-to-physical data mapping in DReX (§7.3):
 *
 *  - *Key Blocks*: 128 keys per bank. A group of Key Blocks spans all
 *    8 channels of a package, so groups hold 1024 keys. The Key Sign
 *    Object of a block is bit-transposed — each DRAM column holds one
 *    dimension across all 128 keys — and must sit entirely inside one
 *    bank so the bank's PFU can filter it.
 *  - Full-precision Key/Value Objects are striped across all 8
 *    channels of the package so NMA fetches use the full package
 *    bandwidth.
 *  - *Context Slices*: the key groups of one (user, layer, head),
 *    up to 128 banks x 1024 keys = 131,072 keys per slice.
 *  - *Multi-Layer Context Slices*: a head's slices for all layers,
 *    stacked in the same package (layers execute sequentially).
 *  - *User Partitions*: one Multi-Layer Context Slice per KV head,
 *    each in a different package (head-level parallelism — with 8 KV
 *    heads and 8 packages, one head per package).
 *
 * The address math here is deterministic (§7.3.2: contiguous physical
 * addresses map to columns, then rows, banks, channels, packages), so
 * the NMA can launch PFUs across banks without a translation table.
 */

#ifndef LONGSIGHT_DREX_LAYOUT_HH
#define LONGSIGHT_DREX_LAYOUT_HH

#include <cstdint>

#include "dram/lpddr_config.hh"

namespace longsight {

/**
 * Placement of one token's key data within its package.
 */
struct TokenPlace
{
    uint32_t package = 0;    //!< package holding this head's slice
    uint32_t bank = 0;       //!< bank index (same in every channel)
    uint32_t signChannel = 0; //!< channel whose bank holds the sign block
    uint32_t indexInBlock = 0; //!< 0..127 position within the key block
    uint32_t group = 0;      //!< 1024-key group index within the slice
    uint64_t signRow = 0;    //!< row of the Key Sign Object
    uint64_t keyRow = 0;     //!< first row of the striped Key Object
    uint64_t valueRow = 0;   //!< first row of the striped Value Object
};

/**
 * Deterministic data layout for a model shape on a DReX device.
 */
class DataLayout
{
  public:
    /** Keys per PFU block (fixed by the PFU datapath, §7.1). */
    static constexpr uint32_t kKeysPerBlock = 128;

    DataLayout(const DrexGeometry &geometry, const LpddrTimings &timings,
               uint32_t num_kv_heads, uint32_t num_layers,
               uint32_t head_dim);

    const DrexGeometry &geometry() const { return geometry_; }
    const LpddrTimings &timings() const { return timings_; }
    uint32_t headDim() const { return headDim_; }

    /** Keys per group of Key Blocks (128 x channels). */
    uint32_t keysPerGroup() const;

    /** Maximum keys in one Context Slice (group per bank x banks). */
    uint64_t maxTokensPerSlice() const;

    /**
     * Package assignment: heads stripe across packages; users rotate
     * the stripe so multi-tenant load spreads (§7.3.3 Partition
     * Mapping).
     */
    uint32_t packageFor(uint32_t user, uint32_t kv_head) const;

    /** Placement of a token's key/sign/value data. */
    TokenPlace place(uint32_t user, uint32_t layer, uint32_t kv_head,
                     uint64_t token) const;

    /** Rows one group consumes per bank for sign objects. */
    uint32_t signRowsPerGroup() const;

    /** Rows one group consumes per bank per channel for key objects. */
    uint32_t keyRowsPerGroup() const;

    /** Rows for value objects (same footprint as keys). */
    uint32_t valueRowsPerGroup() const { return keyRowsPerGroup(); }

    /** Total rows per bank one (layer, group) consumes. */
    uint32_t rowsPerLayerGroup() const;

    /** Sign-object bytes for a full 128-key block. */
    uint32_t signBytesPerBlock() const;

    /** Full-precision key bytes per key. */
    uint32_t keyBytes() const { return headDim_ * 2; }

    /** Device bytes per token including the sign-bit overhead. */
    uint64_t bytesPerToken() const;

  private:
    DrexGeometry geometry_;
    LpddrTimings timings_;
    uint32_t numKvHeads_;
    uint32_t numLayers_;
    uint32_t headDim_;
};

} // namespace longsight

#endif // LONGSIGHT_DREX_LAYOUT_HH
