/**
 * @file
 * Tests for top-k selection: the one-shot partial_sort oracle, the
 * bounded selector every ranker runs (its order key, ties, signed
 * zeros, k at both extremes, and streams that force repeated
 * compaction), and the streaming accumulator built on it (NMA
 * behaviour).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/topk.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

std::vector<ScoredIndex>
referenceTopk(std::vector<float> scores, std::vector<uint32_t> indices,
              size_t k)
{
    std::vector<ScoredIndex> all(scores.size());
    for (size_t i = 0; i < scores.size(); ++i)
        all[i] = {scores[i], indices[i]};
    std::sort(all.begin(), all.end(),
              [](const ScoredIndex &a, const ScoredIndex &b) {
                  return a.betterThan(b);
              });
    all.resize(std::min(k, all.size()));
    return all;
}

TEST(TopkSelect, MatchesSortReference)
{
    Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 1 + rng.below(500);
        std::vector<float> scores(n);
        std::vector<uint32_t> idx(n);
        for (size_t i = 0; i < n; ++i) {
            scores[i] = static_cast<float>(rng.gaussian());
            idx[i] = static_cast<uint32_t>(i);
        }
        const size_t k = 1 + rng.below(n + 10);
        const auto got = topkSelect(scores, idx, k);
        const auto want = referenceTopk(scores, idx, k);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].index, want[i].index);
            EXPECT_EQ(got[i].score, want[i].score);
        }
    }
}

TEST(TopkSelect, KLargerThanInputReturnsAllSorted)
{
    const std::vector<float> scores = {1.0f, 3.0f, 2.0f};
    const std::vector<uint32_t> idx = {10, 20, 30};
    const auto got = topkSelect(scores, idx, 100);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].index, 20u);
    EXPECT_EQ(got[1].index, 30u);
    EXPECT_EQ(got[2].index, 10u);
}

TEST(TopkSelect, TiesBreakTowardLowerIndex)
{
    const std::vector<float> scores = {5.0f, 5.0f, 5.0f, 1.0f};
    const std::vector<uint32_t> idx = {30, 10, 20, 5};
    const auto got = topkSelect(scores, idx, 2);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].index, 10u);
    EXPECT_EQ(got[1].index, 20u);
}

TEST(TopkSelect, EmptyInput)
{
    const auto got = topkSelect({}, {}, 5);
    EXPECT_TRUE(got.empty());
}

/** Bitwise equality, so a -0.0 / +0.0 swap counts as a difference. */
bool
sameEntry(const ScoredIndex &a, const ScoredIndex &b)
{
    return a.index == b.index &&
        std::memcmp(&a.score, &b.score, sizeof a.score) == 0;
}

/** The selector over caller storage, fed in stream order. */
std::vector<ScoredIndex>
selectorTopk(const std::vector<float> &scores,
             const std::vector<uint32_t> &indices, size_t k)
{
    std::vector<RankEntry> store(TopKSelector::storageFor(k));
    TopKSelector sel(store.data(), k);
    for (size_t i = 0; i < scores.size(); ++i)
        sel.push(scores[i], indices[i]);
    EXPECT_EQ(sel.size(), std::min(k, scores.size()));
    std::vector<ScoredIndex> out(sel.size());
    out.resize(sel.finish(out.data()));
    return out;
}

/** The selector equals the partial_sort oracle entry for entry, bit
 *  for bit. */
void
expectMatchesOracle(const std::vector<float> &scores,
                    const std::vector<uint32_t> &indices, size_t k)
{
    const auto want = topkSelect(scores, indices, k);
    const auto got = selectorTopk(scores, indices, k);
    ASSERT_EQ(got.size(), want.size()) << "k " << k;
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(sameEntry(got[i], want[i]))
            << "k " << k << " rank " << i << ": got (" << got[i].score
            << ", " << got[i].index << ") want (" << want[i].score << ", "
            << want[i].index << ")";
}

/** n distinct indices in a shuffled order. */
std::vector<uint32_t>
shuffledIndices(Rng &rng, size_t n)
{
    std::vector<uint32_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = static_cast<uint32_t>(i * 7 + 3);
    for (size_t i = n; i > 1; --i)
        std::swap(idx[i - 1], idx[rng.below(i)]);
    return idx;
}

TEST(TopKSelector, RankKeyOrderIsBetterThan)
{
    using lim = std::numeric_limits<float>;
    const float special[] = {0.0f,        -0.0f,
                             1.0f,        -1.0f,
                             lim::denorm_min(), -lim::denorm_min(),
                             lim::max(),  -lim::max(),
                             lim::infinity(), -lim::infinity()};
    Rng rng(11);
    std::vector<ScoredIndex> pool;
    for (float f : special)
        for (uint32_t i : {0u, 1u, 2u, 0xffffffffu})
            pool.push_back({f, i});
    for (int i = 0; i < 200; ++i)
        pool.push_back({static_cast<float>(rng.gaussian()),
                        static_cast<uint32_t>(rng.below(4))});
    for (const ScoredIndex &a : pool)
        for (const ScoredIndex &b : pool)
            ASSERT_EQ(rankKey(a.score, a.index) > rankKey(b.score, b.index),
                      a.betterThan(b))
                << "(" << a.score << ", " << a.index << ") vs ("
                << b.score << ", " << b.index << ")";
}

TEST(TopKSelector, MatchesOracleOnRandomStreams)
{
    Rng rng(2);
    for (int trial = 0; trial < 40; ++trial) {
        const size_t n = 1 + rng.below(3000);
        std::vector<float> scores(n);
        for (auto &v : scores)
            v = static_cast<float>(rng.gaussian());
        const auto idx = shuffledIndices(rng, n);
        expectMatchesOracle(scores, idx, 1 + rng.below(300));
    }
}

TEST(TopKSelector, MatchesOracleUnderTies)
{
    // Four distinct scores over thousands of candidates: nearly every
    // decision is a tie, settled by index alone.
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 500 + rng.below(2000);
        std::vector<float> scores(n);
        for (auto &v : scores)
            v = static_cast<float>(rng.below(4)) - 1.0f;
        const auto idx = shuffledIndices(rng, n);
        for (size_t k : {size_t{1}, size_t{7}, size_t{64}, n / 3})
            expectMatchesOracle(scores, idx, k);
    }
}

TEST(TopKSelector, MixedSignedZerosTieAndKeepTheirBits)
{
    // -0.0 and +0.0 compare equal, so the lower index wins between
    // them, and each selected entry keeps the zero it was offered.
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 50 + rng.below(600);
        std::vector<float> scores(n);
        for (auto &v : scores) {
            const uint64_t pick = rng.below(4);
            const float tiny = std::numeric_limits<float>::denorm_min();
            v = pick == 0 ? 0.0f : pick == 1 ? -0.0f : pick == 2 ? tiny : -tiny;
        }
        const auto idx = shuffledIndices(rng, n);
        for (size_t k : {size_t{1}, size_t{5}, n / 2, n})
            expectMatchesOracle(scores, idx, k);
    }
}

TEST(TopKSelector, KOneAndKAtLeastN)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 1 + rng.below(200);
        std::vector<float> scores(n);
        for (auto &v : scores)
            v = static_cast<float>(rng.gaussian());
        const auto idx = shuffledIndices(rng, n);
        for (size_t k : {size_t{1}, n, n + 1, 2 * n + 3})
            expectMatchesOracle(scores, idx, k);
    }
    expectMatchesOracle({}, {}, 4);
}

TEST(TopKSelector, MonotoneStreamsForceRepeatedCompaction)
{
    // Ascending scores beat the floor every time, so the buffer fills
    // and compacts every k pushes; descending scores are all rejected
    // after the first compaction. Ties on a plateau go by index.
    const size_t n = 5000;
    std::vector<float> up(n), down(n), plateau(n);
    std::vector<uint32_t> idx(n);
    for (size_t i = 0; i < n; ++i) {
        idx[i] = static_cast<uint32_t>(i);
        up[i] = static_cast<float>(i) * 0.25f - 100.0f;
        down[i] = -up[i];
        plateau[i] = static_cast<float>(i / 700);
    }
    for (size_t k : {size_t{1}, size_t{3}, size_t{64}, size_t{1024}}) {
        expectMatchesOracle(up, idx, k);
        expectMatchesOracle(down, idx, k);
        expectMatchesOracle(plateau, idx, k);
    }
}

TEST(TopKSelector, FinishLeavesItReusable)
{
    std::vector<RankEntry> store(TopKSelector::storageFor(2));
    TopKSelector sel(store.data(), 2);
    for (uint32_t i = 0; i < 10; ++i)
        sel.push(static_cast<float>(i), i);
    ScoredIndex out[2];
    ASSERT_EQ(sel.finish(out), 2u);
    EXPECT_EQ(out[0].index, 9u);
    EXPECT_EQ(out[1].index, 8u);
    // Empty again: a worse candidate than the old floor is kept.
    EXPECT_EQ(sel.size(), 0u);
    sel.push(-5.0f, 42);
    ASSERT_EQ(sel.finish(out), 1u);
    EXPECT_EQ(out[0].index, 42u);
}

TEST(TopK, StreamingMatchesOneShot)
{
    Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 1 + rng.below(800);
        const size_t k = 1 + rng.below(64);
        std::vector<float> scores(n);
        std::vector<uint32_t> idx(n);
        TopK acc(k);
        for (size_t i = 0; i < n; ++i) {
            scores[i] = static_cast<float>(rng.gaussian());
            idx[i] = static_cast<uint32_t>(i * 3);
            acc.push(scores[i], idx[i]);
        }
        const auto want = topkSelect(scores, idx, k);
        const auto got = acc.sortedResults();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i].index, want[i].index) << "trial " << trial;
    }
}

TEST(TopK, CapacityBoundsSize)
{
    TopK acc(4);
    for (uint32_t i = 0; i < 100; ++i)
        acc.push(static_cast<float>(i), i);
    EXPECT_EQ(acc.size(), 4u);
    const auto res = acc.sortedResults();
    EXPECT_EQ(res[0].index, 99u);
    EXPECT_EQ(res[3].index, 96u);
}

TEST(TopK, WorstRetainedIsEvictionBoundary)
{
    TopK acc(3);
    acc.push(5.0f, 0);
    acc.push(7.0f, 1);
    acc.push(6.0f, 2);
    EXPECT_FLOAT_EQ(acc.worstRetained(), 5.0f);
    acc.push(8.0f, 3); // evicts 5
    EXPECT_FLOAT_EQ(acc.worstRetained(), 6.0f);
    acc.push(1.0f, 4); // ignored
    EXPECT_FLOAT_EQ(acc.worstRetained(), 6.0f);
}

TEST(TopK, MergeEqualsCombinedStream)
{
    Rng rng(3);
    const size_t k = 16;
    TopK a(k), b(k), combined(k);
    for (int i = 0; i < 500; ++i) {
        const float s = static_cast<float>(rng.gaussian());
        const auto idx = static_cast<uint32_t>(i);
        (i % 2 ? a : b).push(s, idx);
        combined.push(s, idx);
    }
    a.merge(b);
    const auto got = a.sortedResults();
    const auto want = combined.sortedResults();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].index, want[i].index);
}

TEST(TopK, SelfMergeIsANoOp)
{
    // Regression: merge(*this) used to push into heap_ while
    // range-iterating it, invalidating the iterator on reallocation.
    Rng rng(7);
    TopK acc(8);
    for (int i = 0; i < 64; ++i)
        acc.push(static_cast<float>(rng.gaussian()),
                 static_cast<uint32_t>(i));
    const auto before = acc.sortedResults();
    acc.merge(acc);
    const auto after = acc.sortedResults();
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(after[i].index, before[i].index);
        EXPECT_FLOAT_EQ(after[i].score, before[i].score);
    }
}

TEST(TopK, SelfMergeWhileFillingKeepsContents)
{
    TopK acc(16);
    acc.push(1.0f, 1);
    acc.push(2.0f, 2);
    acc.merge(acc); // below capacity: must not duplicate entries
    const auto res = acc.sortedResults();
    ASSERT_EQ(res.size(), 2u);
    EXPECT_EQ(res[0].index, 2u);
    EXPECT_EQ(res[1].index, 1u);
}

TEST(TopK, DuplicateScoresKeepDeterministicWinners)
{
    // All-equal scores: the k lowest indices must win, regardless of
    // arrival order.
    TopK acc(3);
    for (uint32_t idx : {50u, 10u, 40u, 20u, 30u})
        acc.push(1.0f, idx);
    const auto res = acc.sortedResults();
    ASSERT_EQ(res.size(), 3u);
    EXPECT_EQ(res[0].index, 10u);
    EXPECT_EQ(res[1].index, 20u);
    EXPECT_EQ(res[2].index, 30u);
}

TEST(TopK, DrainSortedMatchesSortedResults)
{
    Rng rng(13);
    for (size_t k : {size_t{1}, size_t{8}, size_t{100}}) {
        TopK acc(k);
        const size_t n = 1 + rng.below(300);
        for (size_t i = 0; i < n; ++i)
            acc.push(static_cast<float>(rng.gaussian()),
                     static_cast<uint32_t>(i));
        const auto want = acc.sortedResults();
        std::vector<ScoredIndex> got(acc.size());
        const size_t m = acc.drainSorted(got.data());
        ASSERT_EQ(m, want.size());
        for (size_t i = 0; i < m; ++i) {
            EXPECT_EQ(got[i].index, want[i].index);
            EXPECT_EQ(got[i].score, want[i].score);
        }
        // Drained: empty but immediately reusable.
        EXPECT_EQ(acc.size(), 0u);
        acc.push(1.0f, 7);
        ScoredIndex one;
        EXPECT_EQ(acc.drainSorted(&one), 1u);
        EXPECT_EQ(one.index, 7u);
    }
}

TEST(TopK, DrainSortedBreaksTiesByIndex)
{
    TopK acc(4);
    for (uint32_t idx : {9u, 3u, 12u, 1u, 6u})
        acc.push(2.5f, idx);
    ScoredIndex out[4];
    ASSERT_EQ(acc.drainSorted(out), 4u);
    EXPECT_EQ(out[0].index, 1u);
    EXPECT_EQ(out[1].index, 3u);
    EXPECT_EQ(out[2].index, 6u);
    EXPECT_EQ(out[3].index, 9u);
}

TEST(TopK, DrainSortedEmptyIsZero)
{
    TopK acc(5);
    EXPECT_EQ(acc.drainSorted(nullptr), 0u);
}

} // namespace
} // namespace longsight
