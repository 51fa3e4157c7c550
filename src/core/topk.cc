#include "core/topk.hh"

#include <algorithm>

#include "util/logging.hh"

namespace longsight {

std::vector<ScoredIndex>
topkSelect(const std::vector<float> &scores,
           const std::vector<uint32_t> &indices, size_t k)
{
    LS_ASSERT(scores.size() == indices.size(),
              "topkSelect parallel array mismatch");
    std::vector<ScoredIndex> all(scores.size());
    for (size_t i = 0; i < scores.size(); ++i)
        all[i] = ScoredIndex{scores[i], indices[i]};

    const size_t keep = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                      [](const ScoredIndex &a, const ScoredIndex &b) {
                          return a.betterThan(b);
                      });
    all.resize(keep);
    return all;
}

TopK::TopK(size_t k)
    : buf_(TopKSelector::storageFor(k)), sel_(buf_.data(), k)
{
    LS_ASSERT(k > 0, "TopK capacity must be positive");
}

float
TopK::worstRetained() const
{
    LS_ASSERT(size() > 0, "worstRetained on empty TopK");
    return sortedResults().back().score;
}

std::vector<ScoredIndex>
TopK::sortedResults() const
{
    // Drain a copy, so this accumulator keeps its candidates.
    TopK copy(capacity());
    copy.merge(*this);
    std::vector<ScoredIndex> out(copy.size());
    out.resize(copy.drainSorted(out.data()));
    return out;
}

} // namespace longsight
