#include "drex/pfu.hh"

#include <bit>

#include "tensor/kernels.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {

Bitmap128
Bitmap128::fromWords(uint64_t lo, uint64_t hi)
{
    Bitmap128 b;
    b.words_[0] = lo;
    b.words_[1] = hi;
    return b;
}

void
Bitmap128::set(uint32_t i)
{
    LS_ASSERT(i < 128, "bitmap index out of range");
    words_[i >> 6] |= uint64_t{1} << (i & 63);
}

bool
Bitmap128::test(uint32_t i) const
{
    LS_ASSERT(i < 128, "bitmap index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1;
}

uint32_t
Bitmap128::popcount() const
{
    return static_cast<uint32_t>(std::popcount(words_[0]) +
                                 std::popcount(words_[1]));
}

std::vector<Bitmap128>
Pfu::filterBlock(const std::vector<SignBits> &query_signs,
                 const SignBits *keys, uint32_t num_keys, int threshold)
{
    LS_ASSERT(num_keys <= kBlockKeys, "PFU block holds at most 128 keys");
    LS_ASSERT(!query_signs.empty() && query_signs.size() <= kMaxQueries,
              "PFU supports 1..16 queries per offload, got ",
              query_signs.size());

    std::vector<Bitmap128> bitmaps(query_signs.size());
    for (size_t q = 0; q < query_signs.size(); ++q) {
        for (uint32_t i = 0; i < num_keys; ++i) {
            if (query_signs[q].concordance(keys[i]) >= threshold)
                bitmaps[q].set(i);
        }
    }
    return bitmaps;
}

void
Pfu::filterBlock(const uint64_t *query_words, size_t words_per_query,
                 uint32_t num_queries, const SignMatrix &keys, size_t begin,
                 uint32_t num_keys, int threshold, Bitmap128 *bitmaps)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(num_keys <= kBlockKeys, "PFU block holds at most 128 keys");
    LS_ASSERT(num_queries >= 1 && num_queries <= kMaxQueries,
              "PFU supports 1..16 queries per offload, got ", num_queries);
    LS_ASSERT(words_per_query == keys.wordsPerRow(),
              "PFU packed query width ", words_per_query,
              " != sign-matrix row width ", keys.wordsPerRow());

    // One streaming pass over the block's sign rows serves the whole
    // query group (concordanceBitmapMulti), instead of re-reading the
    // block once per query.
    uint64_t words[2 * kMaxQueries];
    concordanceBitmapMulti(query_words, num_queries, keys, begin, num_keys,
                           threshold, words);
    for (uint32_t q = 0; q < num_queries; ++q)
        bitmaps[q] = Bitmap128::fromWords(words[q * 2], words[q * 2 + 1]);
}

Tick
Pfu::bitmapGenTime(uint32_t head_dim, uint32_t num_queries)
{
    // d cycles at 1.25 ns per query (§8.2 RTL synthesis figure).
    return fromNanoseconds(1.25 * head_dim * num_queries);
}

} // namespace longsight
