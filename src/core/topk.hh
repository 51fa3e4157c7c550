/**
 * @file
 * Top-k selection over attention scores — the paper's §5 ranking
 * stage. Provides a one-shot selection over a score array (the
 * reference every bounded ranker is tested against) and a streaming
 * accumulator (TopK) matching the NMA hardware behaviour, which
 * evaluates scores epoch by epoch and keeps a bounded partial top-k
 * list (hardware cap k <= 1024, §7.2).
 */

#ifndef LONGSIGHT_CORE_TOPK_HH
#define LONGSIGHT_CORE_TOPK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

// ScoredIndex and the bounded selector live in the tensor layer so the
// fused span driver (batchScoreSelectMultiSpans) shares the exact same
// ordering implementation; this header re-exports them for existing
// callers.
#include "tensor/topk_selector.hh"

namespace longsight {

/**
 * Select the k best (score, index) pairs from parallel arrays.
 * Deterministic: ties resolve toward the lower index. Results are
 * sorted best-first. If k >= scores.size(), returns everything.
 */
std::vector<ScoredIndex> topkSelect(const std::vector<float> &scores,
                                    const std::vector<uint32_t> &indices,
                                    size_t k);

/**
 * Streaming bounded top-k accumulator: a TopKSelector that owns its
 * storage.
 */
class TopK
{
  public:
    explicit TopK(size_t k);

    // The selector points into buf_, so a copy would share it.
    TopK(const TopK &) = delete;
    TopK &operator=(const TopK &) = delete;

    /** Offer one candidate. */
    void push(float score, uint32_t index) { sel_.push(score, index); }

    size_t capacity() const { return sel_.capacity(); }
    size_t size() const { return sel_.size(); }

    /**
     * Drain into the caller's span (capacity >= size()) sorted
     * best-first — no allocation. Returns the number of entries
     * written. The accumulator is left empty (capacity retained) for
     * reuse.
     */
    size_t drainSorted(ScoredIndex *out) { return sel_.finish(out); }

  private:
    std::vector<RankEntry> buf_;
    TopKSelector sel_;
};

} // namespace longsight

#endif // LONGSIGHT_CORE_TOPK_HH
