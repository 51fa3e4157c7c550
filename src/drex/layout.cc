#include "drex/layout.hh"

#include "util/logging.hh"

namespace longsight {

DataLayout::DataLayout(const DrexGeometry &geometry,
                       const LpddrTimings &timings, uint32_t num_kv_heads,
                       uint32_t num_layers, uint32_t head_dim)
    : geometry_(geometry), timings_(timings), numKvHeads_(num_kv_heads),
      numLayers_(num_layers), headDim_(head_dim)
{
    LS_ASSERT(head_dim % 8 == 0, "head dim must be byte-aligned in signs");
    LS_ASSERT(num_kv_heads > 0 && num_layers > 0, "degenerate model shape");
}

uint32_t
DataLayout::keysPerGroup() const
{
    return kKeysPerBlock * geometry_.channelsPerPackage;
}

uint64_t
DataLayout::maxTokensPerSlice() const
{
    // One group per bank across all banks: 1024 x 128 = 131,072 (§7.3.3).
    return static_cast<uint64_t>(keysPerGroup()) *
        geometry_.banksPerChannel;
}

uint32_t
DataLayout::packageFor(uint32_t user, uint32_t kv_head) const
{
    LS_ASSERT(kv_head < numKvHeads_, "kv head out of range");
    return (kv_head + user) % geometry_.numPackages;
}

uint32_t
DataLayout::signBytesPerBlock() const
{
    // Bit-transposed: headDim columns x 128 bits = 16 bytes each.
    return kKeysPerBlock / 8 * headDim_;
}

uint32_t
DataLayout::signRowsPerGroup() const
{
    return (signBytesPerBlock() + timings_.rowBytes - 1) /
        timings_.rowBytes;
}

uint32_t
DataLayout::keyRowsPerGroup() const
{
    // The group's keys are striped over every channel: each channel's
    // bank stores keysPerGroup * keyBytes / channels bytes.
    const uint32_t bytes_per_channel =
        keysPerGroup() * keyBytes() / geometry_.channelsPerPackage;
    return (bytes_per_channel + timings_.rowBytes - 1) / timings_.rowBytes;
}

uint32_t
DataLayout::rowsPerLayerGroup() const
{
    return signRowsPerGroup() + keyRowsPerGroup() + valueRowsPerGroup();
}

TokenPlace
DataLayout::place(uint32_t user, uint32_t layer, uint32_t kv_head,
                  uint64_t token) const
{
    LS_ASSERT(layer < numLayers_, "layer out of range");
    const uint64_t per_slice = maxTokensPerSlice();
    // Tokens past one slice spill into the next partition segment; the
    // segment repeats the same geometry with a row offset.
    const uint64_t segment = token / per_slice;
    const uint64_t in_slice = token % per_slice;

    TokenPlace p;
    p.package = packageFor(user, kv_head);
    p.group = static_cast<uint32_t>(in_slice / keysPerGroup());
    p.bank = p.group % geometry_.banksPerChannel;
    const uint32_t in_group =
        static_cast<uint32_t>(in_slice % keysPerGroup());
    p.signChannel = in_group / kKeysPerBlock;
    p.indexInBlock = in_group % kKeysPerBlock;

    // Row addressing: each (segment, layer) stacks rowsPerLayerGroup
    // rows per bank. Groups share their bank with no other group of
    // the same (segment, layer), so the base is purely layer-indexed.
    const uint64_t layer_base =
        (segment * numLayers_ + layer) *
        static_cast<uint64_t>(rowsPerLayerGroup());
    p.signRow = layer_base;
    p.keyRow = layer_base + signRowsPerGroup();
    p.valueRow = p.keyRow + keyRowsPerGroup();

    LS_ASSERT(p.valueRow + valueRowsPerGroup() <= timings_.rowsPerBank(),
              "context overflows bank rows: token ", token, " layer ",
              layer);
    return p;
}

uint64_t
DataLayout::bytesPerToken() const
{
    // Per layer per KV head: full-precision key + value + sign bits.
    const uint64_t per_head = 2ULL * keyBytes() + headDim_ / 8;
    return per_head * numKvHeads_ * numLayers_;
}

} // namespace longsight
