/**
 * @file
 * Bounded top-k min-heap primitives over caller-owned storage. These
 * are the single implementation of the paper's §5 ranking order: both
 * the streaming TopK accumulator (core/topk) and the fused
 * scan→score→select drivers (tensor/kernels *ScoreSelectMultiSpans)
 * build on the helpers here, so the score-desc / index-asc tie-break is exact
 * and identical everywhere by construction, not by convention.
 *
 * The heap is a binary min-heap under betterThan-inverted ordering:
 * heap[0] is the entry the next better candidate evicts, which makes
 * "early reject against the current k-th score" a single comparison.
 * Storage is a raw span the caller provides (typically scratch-arena
 * memory or TopK's member vector); the helpers never allocate.
 */

#ifndef LONGSIGHT_TENSOR_TOPK_HEAP_HH
#define LONGSIGHT_TENSOR_TOPK_HEAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>

namespace longsight {

/**
 * A scored candidate key.
 */
struct ScoredIndex
{
    float score;
    uint32_t index;

    /** Ordering: higher score wins; ties break toward lower index. */
    bool betterThan(const ScoredIndex &o) const
    {
        return score > o.score || (score == o.score && index < o.index);
    }
};

namespace topk_heap {

/** Min-heap comparator: a sits below b when a is the worse entry. */
inline bool
worse(const ScoredIndex &a, const ScoredIndex &b)
{
    return b.betterThan(a);
}

inline void
siftUp(ScoredIndex *heap, size_t i)
{
    while (i > 0) {
        const size_t parent = (i - 1) / 2;
        if (!worse(heap[i], heap[parent]))
            break;
        std::swap(heap[i], heap[parent]);
        i = parent;
    }
}

inline void
siftDown(ScoredIndex *heap, size_t size, size_t i)
{
    for (;;) {
        const size_t l = 2 * i + 1;
        const size_t r = 2 * i + 2;
        size_t smallest = i;
        if (l < size && worse(heap[l], heap[smallest]))
            smallest = l;
        if (r < size && worse(heap[r], heap[smallest]))
            smallest = r;
        if (smallest == i)
            break;
        std::swap(heap[i], heap[smallest]);
        i = smallest;
    }
}

/**
 * Offer one candidate to a heap of capacity k currently holding `size`
 * entries. Returns the new size. The caller's span must hold at least
 * k entries.
 */
inline size_t
push(ScoredIndex *heap, size_t size, size_t k, ScoredIndex cand)
{
    if (size < k) {
        heap[size] = cand;
        siftUp(heap, size);
        return size + 1;
    }
    if (cand.betterThan(heap[0])) {
        heap[0] = cand;
        siftDown(heap, size, 0);
    }
    return size;
}

/**
 * In-place heapsort of a valid min-heap into best-first order. After
 * the call the span is a plain sorted array (heap property gone).
 * Repeatedly moving the root (the worst retained entry) to the back
 * fills positions size-1, size-2, ... with ever-better entries, so the
 * front ends up best-first.
 */
inline void
sortBestFirst(ScoredIndex *heap, size_t size)
{
    while (size > 1) {
        --size;
        std::swap(heap[0], heap[size]);
        siftDown(heap, size, 0);
    }
}

} // namespace topk_heap

} // namespace longsight

#endif // LONGSIGHT_TENSOR_TOPK_HEAP_HH
