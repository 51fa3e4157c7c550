#include "tensor/signbits.hh"

#include <bit>

#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {

void
packSigns(const float *v, size_t dim, uint64_t *words)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t nwords = (dim + 63) / 64;
    for (size_t w = 0; w < nwords; ++w)
        words[w] = 0;
    for (size_t i = 0; i < dim; ++i) {
        if (v[i] >= 0.0f)
            words[i >> 6] |= uint64_t{1} << (i & 63);
    }
}

SignBits::SignBits(const float *v, size_t dim)
    : dim_(dim), words_((dim + 63) / 64)
{
    packSigns(v, dim, words_.data());
}

bool
SignBits::bit(size_t i) const
{
    LS_ASSERT(i < dim_, "sign bit index ", i, " out of range ", dim_);
    return (words_[i >> 6] >> (i & 63)) & 1;
}

int
SignBits::concordance(const SignBits &other) const
{
    LS_ASSERT(dim_ == other.dim_, "sign concordance dim mismatch: ",
              dim_, " vs ", other.dim_);
    int mismatches = 0;
    for (size_t w = 0; w < words_.size(); ++w)
        mismatches += std::popcount(words_[w] ^ other.words_[w]);
    return static_cast<int>(dim_) - mismatches;
}

std::vector<SignBits>
packSignRows(const float *data, size_t count, size_t dim)
{
    std::vector<SignBits> out;
    out.reserve(count);
    for (size_t r = 0; r < count; ++r)
        out.emplace_back(data + r * dim, dim);
    return out;
}

} // namespace longsight
