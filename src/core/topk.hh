/**
 * @file
 * Top-k selection over attention scores — the paper's §5 ranking
 * stage. Provides a one-shot selection over a score array and a
 * streaming accumulator (TopK) matching the NMA hardware behaviour,
 * which evaluates scores epoch by epoch and keeps a bounded partial
 * top-k list (hardware cap k <= 1024, §7.2).
 */

#ifndef LONGSIGHT_CORE_TOPK_HH
#define LONGSIGHT_CORE_TOPK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

// ScoredIndex and the bounded-heap primitives live in the tensor layer
// so the fused span driver (batchScoreSelectMultiSpans) shares the
// exact same ordering implementation; this header re-exports them for
// existing callers.
#include "tensor/topk_heap.hh"

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
 * Streaming bounded top-k accumulator (min-heap of capacity k).
 */
class TopK
{
  public:
    explicit TopK(size_t k);

    /** Offer one candidate. */
    void push(float score, uint32_t index);

    /** Merge another accumulator's contents (DCC aggregation path). */
    void merge(const TopK &other);

    size_t capacity() const { return k_; }
    size_t size() const { return heap_.size(); }

    /** Current worst retained score (only valid when size() == k). */
    float worstRetained() const;

    /** Extract results sorted best-first (accumulator stays intact). */
    std::vector<ScoredIndex> sortedResults() const;

    /**
     * Drain into the caller's span (capacity >= size()) sorted
     * best-first via in-place heapsort — no allocation, unlike
     * sortedResults. Returns the number of entries written. The
     * accumulator is left empty (capacity retained) for reuse.
     */
    size_t drainSorted(ScoredIndex *out);

  private:
    size_t k_;
    // Min-heap on betterThan-inverted ordering (topk_heap helpers):
    // heap_[0] is the entry that the next better candidate evicts.
    std::vector<ScoredIndex> heap_;
};

} // namespace longsight

#endif // LONGSIGHT_CORE_TOPK_HH
