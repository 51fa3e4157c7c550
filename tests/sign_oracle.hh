/**
 * @file
 * Scalar oracles over packed sign rows for tests: read a SignMatrix
 * row (or a cache token's filter-plane row) as words and count its
 * concordance with a query one word at a time, independent of the
 * batch kernels under test.
 */

#ifndef LONGSIGHT_TESTS_SIGN_ORACLE_HH
#define LONGSIGHT_TESTS_SIGN_ORACLE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "core/kv_cache.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"

namespace longsight {

/** Packed words of row r of m, comparable with SignBits::words(). */
inline std::vector<uint64_t>
rowWords(const SignMatrix &m, size_t r)
{
    const uint64_t *w = m.row(r);
    return std::vector<uint64_t>(w, w + m.wordsPerRow());
}

/** Dimensions where q and row r of m carry the same sign. */
inline int
rowConcordance(const SignBits &q, const SignMatrix &m, size_t r)
{
    const uint64_t *w = m.row(r);
    int mismatches = 0;
    for (size_t i = 0; i < m.wordsPerRow(); ++i)
        mismatches += std::popcount(w[i] ^ q.words()[i]);
    return static_cast<int>(m.dim()) - mismatches;
}

/** Packed filter-plane sign words of logical token i of a cache
 *  (ITQ-rotated when a rotation is installed, raw otherwise). */
inline std::vector<uint64_t>
filterSignWords(const KvCache &c, size_t i)
{
    const auto logical = static_cast<uint32_t>(i);
    uint32_t physical = 0;
    c.mapToPhysical(&logical, 1, &physical);
    return rowWords(c.filterSignsStorage(), physical);
}

} // namespace longsight

#endif // LONGSIGHT_TESTS_SIGN_ORACLE_HH
