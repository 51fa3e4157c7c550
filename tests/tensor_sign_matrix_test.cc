/**
 * @file
 * SignMatrix unit tests: packing semantics against SignBits (the
 * scalar reference), the v >= 0 sign rule at edge values on every
 * packing path, append/extract round-trips, alignment of the backing
 * store, and the pack() batch constructor.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

std::vector<float>
randomVec(Rng &rng, size_t dim)
{
    return rng.gaussianVec(dim);
}

TEST(SignMatrix, EmptyMatrix)
{
    SignMatrix m(64);
    EXPECT_EQ(m.dim(), 64u);
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.wordsPerRow(), 1u);
}

TEST(SignMatrix, WordsPerRowRoundsUp)
{
    EXPECT_EQ(SignMatrix(1).wordsPerRow(), 1u);
    EXPECT_EQ(SignMatrix(63).wordsPerRow(), 1u);
    EXPECT_EQ(SignMatrix(64).wordsPerRow(), 1u);
    EXPECT_EQ(SignMatrix(65).wordsPerRow(), 2u);
    EXPECT_EQ(SignMatrix(128).wordsPerRow(), 2u);
    EXPECT_EQ(SignMatrix(129).wordsPerRow(), 3u);
}

TEST(SignMatrix, AppendRowMatchesSignBits)
{
    Rng rng(11);
    for (size_t dim : {7u, 37u, 64u, 100u, 128u, 200u}) {
        SignMatrix m(dim);
        std::vector<std::vector<float>> data;
        for (int r = 0; r < 33; ++r) {
            data.push_back(randomVec(rng, dim));
            m.appendRow(data.back().data());
        }
        ASSERT_EQ(m.rows(), data.size());
        for (size_t r = 0; r < data.size(); ++r) {
            const SignBits ref(data[r].data(), dim);
            const SignBits got = m.extract(r);
            EXPECT_EQ(got.words(), ref.words())
                << "dim " << dim << " row " << r;
        }
    }
}

TEST(SignMatrix, RowWordsMatchSignBitsWords)
{
    Rng rng(12);
    const size_t dim = 100; // tail bits beyond dim must be zero
    SignMatrix m(dim);
    std::vector<std::vector<float>> data;
    for (int r = 0; r < 9; ++r) {
        data.push_back(randomVec(rng, dim));
        m.appendRow(data.back().data());
    }
    for (size_t r = 0; r < data.size(); ++r) {
        const SignBits ref(data[r].data(), dim);
        const uint64_t *row = m.row(r);
        ASSERT_EQ(ref.words().size(), m.wordsPerRow());
        for (size_t w = 0; w < m.wordsPerRow(); ++w)
            EXPECT_EQ(row[w], ref.words()[w]) << "row " << r;
    }
}

TEST(SignMatrix, AppendSignsRoundTrip)
{
    Rng rng(13);
    const size_t dim = 128;
    SignMatrix m(dim);
    std::vector<SignBits> refs;
    for (int r = 0; r < 17; ++r) {
        const auto v = randomVec(rng, dim);
        refs.emplace_back(v.data(), dim);
        m.appendSigns(refs.back());
    }
    for (size_t r = 0; r < refs.size(); ++r)
        EXPECT_EQ(m.extract(r).words(), refs[r].words());
}

TEST(SignMatrix, PackMatchesAppendLoop)
{
    Rng rng(14);
    const size_t dim = 96, count = 41;
    const auto flat = rng.gaussianVec(count * dim);
    const SignMatrix packed = SignMatrix::pack(flat.data(), count, dim);
    SignMatrix appended(dim);
    for (size_t r = 0; r < count; ++r)
        appended.appendRow(flat.data() + r * dim);
    EXPECT_EQ(packed, appended);
}

TEST(SignMatrix, ConcordanceRowMatchesSignBits)
{
    Rng rng(15);
    const size_t dim = 100;
    const auto qv = randomVec(rng, dim);
    const SignBits q(qv.data(), dim);
    SignMatrix m(dim);
    std::vector<SignBits> refs;
    for (int r = 0; r < 25; ++r) {
        const auto v = randomVec(rng, dim);
        refs.emplace_back(v.data(), dim);
        m.appendRow(v.data());
    }
    for (size_t r = 0; r < refs.size(); ++r)
        EXPECT_EQ(m.concordanceRow(q, r), q.concordance(refs[r]));
}

TEST(SignMatrix, ClearKeepsDimension)
{
    Rng rng(16);
    SignMatrix m(64);
    const auto v = randomVec(rng, 64);
    m.appendRow(v.data());
    ASSERT_EQ(m.rows(), 1u);
    m.clear();
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.dim(), 64u);
    m.appendRow(v.data());
    EXPECT_EQ(m.rows(), 1u);
}

TEST(SignMatrix, ReserveDoesNotChangeContents)
{
    Rng rng(17);
    SignMatrix a(80), b(80);
    b.reserveRows(512);
    for (int r = 0; r < 20; ++r) {
        const auto v = randomVec(rng, 80);
        a.appendRow(v.data());
        b.appendRow(v.data());
    }
    EXPECT_EQ(a, b);
}

TEST(SignMatrix, BufferIs64ByteAligned)
{
    Rng rng(18);
    SignMatrix m(128);
    // Across several growth reallocations the buffer must stay
    // 64-byte aligned (the kernels rely on it for aligned loads).
    for (int r = 0; r < 300; ++r) {
        const auto v = randomVec(rng, 128);
        m.appendRow(v.data());
        EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u);
    }
}

TEST(SignMatrix, RowsAreContiguous)
{
    Rng rng(19);
    SignMatrix m(128);
    for (int r = 0; r < 10; ++r) {
        const auto v = randomVec(rng, 128);
        m.appendRow(v.data());
    }
    for (size_t r = 0; r < m.rows(); ++r)
        EXPECT_EQ(m.row(r), m.data() + r * m.wordsPerRow());
}

TEST(SignPacking, EdgeValuesFollowOneRuleOnEveryPath)
{
    // Bit i is set iff v[i] >= 0: both zeros set it, NaN clears it,
    // infinities and denormals follow their sign. Spread over 130 dims
    // so every word, including a partial tail word, sees each value.
    using lim = std::numeric_limits<float>;
    const float edges[] = {-0.0f,          0.0f,
                           lim::quiet_NaN(), -lim::quiet_NaN(),
                           lim::infinity(), -lim::infinity(),
                           lim::denorm_min(), -lim::denorm_min(),
                           lim::min(),      -lim::min()};
    const bool expect[] = {true,  true,  false, false, true,
                           false, true,  false, true,  false};
    const size_t dim = 130;
    std::vector<float> v(dim);
    for (size_t i = 0; i < dim; ++i)
        v[i] = edges[(i * 7) % std::size(edges)];

    std::vector<uint64_t> packed((dim + 63) / 64, ~uint64_t{0});
    packSigns(v.data(), dim, packed.data());
    const SignBits bits(v.data(), dim);
    SignMatrix appended(dim), set(dim);
    appended.appendRow(v.data());
    set.resizeRows(1);
    const std::vector<float> ones(dim, 1.0f);
    set.setRow(0, ones.data()); // setRow must overwrite, not OR in
    set.setRow(0, v.data());

    for (size_t i = 0; i < dim; ++i) {
        const bool want = expect[(i * 7) % std::size(edges)];
        EXPECT_EQ(((packed[i >> 6] >> (i & 63)) & 1) != 0, want)
            << "packSigns dim " << i;
        EXPECT_EQ(bits.bit(i), want) << "SignBits dim " << i;
    }
    // Padding past dim stays clear, so the four paths agree word for
    // word.
    EXPECT_EQ(packed.back() >> (dim % 64), 0u);
    EXPECT_EQ(bits.words(), packed);
    for (size_t w = 0; w < packed.size(); ++w) {
        EXPECT_EQ(appended.row(0)[w], packed[w]) << "appendRow word " << w;
        EXPECT_EQ(set.row(0)[w], packed[w]) << "setRow word " << w;
    }
}

} // namespace
} // namespace longsight
