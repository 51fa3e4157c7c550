/**
 * @file
 * The bounded top-k selector over caller-owned storage: the single
 * implementation of the paper's §5 ranking order. The streaming TopK
 * accumulator (core/topk), the fused scan→score→select driver
 * (tensor/kernels batchScoreSelectMultiSpans), the NMA's rank stage and
 * every other bounded ranker push into it, so the score-desc /
 * index-asc tie-break is exact and identical everywhere by
 * construction, not by convention.
 *
 * Each candidate becomes one packed 64-bit order key (rankKey) whose
 * unsigned order is exactly ScoredIndex::betterThan's, so ranking
 * compares integers. The selector appends candidates that beat its
 * current floor to a buffer of 2k entries, branch-free, and when the
 * buffer fills it keeps the k best with one nth_element and raises the
 * floor to the k-th best key. That is linear in the candidates, where a
 * binary heap pays a log k sift for every candidate that displaces its
 * root. finish() sorts the k survivors best-first. Storage is a raw
 * span the caller provides (scratch-arena memory or TopK's member
 * vector); the selector never allocates.
 */

#ifndef LONGSIGHT_TENSOR_TOPK_SELECTOR_HH
#define LONGSIGHT_TENSOR_TOPK_SELECTOR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

/**
 * Order key of one candidate: a larger key is a better candidate, in
 * exactly betterThan's order. The high word is the score's bits made
 * monotone (negative floats inverted, positive ones offset by the sign
 * bit) with -0.0 folded onto +0.0, since the two compare equal; the
 * low word is the inverted index, so ties go to the lower index. NaN
 * scores are outside the contract, as they are for betterThan.
 */
inline uint64_t
rankKey(float score, uint32_t index)
{
    uint32_t bits;
    std::memcpy(&bits, &score, sizeof bits);
    bits = bits == 0x80000000u ? 0u : bits;
    const uint32_t mono = (bits & 0x80000000u) ? ~bits : bits | 0x80000000u;
    return (uint64_t{mono} << 32) | ~index;
}

/** One buffered candidate: its order key and the score it was offered
 *  with (the key folds -0.0, the carried float keeps it). */
struct RankEntry
{
    uint64_t key;
    float score;
};

/**
 * Bounded top-k over 2k entries of caller storage. After any sequence
 * of push() calls, finish() yields the min(k, offered) best candidates
 * in betterThan order: the same entries, scores and order a binary heap
 * of capacity k or a full sort would give, whatever the push order.
 */
class TopKSelector
{
  public:
    /** RankEntry slots a selector of capacity k needs. */
    static constexpr size_t storageFor(size_t k) { return 2 * k; }

    /** A placeholder without storage; assign a real one before use. */
    TopKSelector() = default;

    /** storage holds storageFor(k) entries; k > 0. */
    TopKSelector(RankEntry *storage, size_t k) : buf_(storage), k_(k) {}

    /** Offer one candidate. */
    void push(float score, uint32_t index)
    {
        const uint64_t key = rankKey(score, index);
        // Store unconditionally, keep it only if it beats the floor: a
        // data-dependent branch here would mispredict on every
        // admission. n_ < 2k holds on entry, so the slot exists.
        buf_[n_] = RankEntry{key, score};
        n_ += key > floor_ ? 1 : 0;
        if (n_ == 2 * k_)
            compact();
    }

    /**
     * Offer every candidate o holds, so this selects the best of both
     * streams. Merging a selector into itself changes nothing.
     */
    void merge(const TopKSelector &o)
    {
        if (&o == this)
            return;
        for (size_t i = 0; i < o.n_; ++i)
            push(o.buf_[i].score, static_cast<uint32_t>(~o.buf_[i].key));
    }

    size_t capacity() const { return k_; }

    /** Entries finish() would write now: min(k, candidates offered). */
    size_t size() const { return std::min(n_, k_); }

    /**
     * Write the selection to out (capacity >= size()) best-first and
     * return its count. The selector is left empty for reuse.
     */
    size_t finish(ScoredIndex *out)
    {
        if (n_ > k_)
            keepBest();
        std::sort(buf_, buf_ + n_, KeyGreater{});
        for (size_t i = 0; i < n_; ++i)
            out[i] = ScoredIndex{buf_[i].score,
                                 static_cast<uint32_t>(~buf_[i].key)};
        const size_t n = n_;
        n_ = 0;
        floor_ = 0;
        return n;
    }

  private:
    /** Better-first order of buffered entries (a function object, so
     *  the sort inlines it). */
    struct KeyGreater
    {
        bool operator()(const RankEntry &a, const RankEntry &b) const
        {
            return a.key > b.key;
        }
    };

    /** Keep the k best buffered entries at the front. */
    void keepBest()
    {
        std::nth_element(buf_, buf_ + (k_ - 1), buf_ + n_, KeyGreater{});
        n_ = k_;
    }

    /** Full buffer: drop all but the k best; the k-th best becomes the
     *  floor, since a candidate at or below it can never be selected. */
    void compact()
    {
        keepBest();
        floor_ = buf_[k_ - 1].key;
    }

    RankEntry *buf_ = nullptr;
    size_t k_ = 0;
    size_t n_ = 0;
    // Keys at or below the floor are rejected. 0 admits every key but
    // the one of a NaN score.
    uint64_t floor_ = 0;
};

} // namespace longsight

#endif // LONGSIGHT_TENSOR_TOPK_SELECTOR_HH
