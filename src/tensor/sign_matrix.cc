#include "tensor/sign_matrix.hh"

#include <bit>

#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {

SignMatrix::SignMatrix(size_t dim)
    : dim_(dim), wordsPerRow_((dim + 63) / 64)
{
    LS_ASSERT(dim > 0, "SignMatrix dimension must be positive");
}

void
SignMatrix::clear()
{
    rows_ = 0;
    words_.clear();
}

void
SignMatrix::resizeRows(size_t n)
{
    LS_ASSERT(dim_ > 0, "resizeRows on a dimensionless SignMatrix");
    words_.resize(n * wordsPerRow_, 0);
    rows_ = n;
}

void
SignMatrix::setRow(size_t r, const float *v)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(r < rows_, "SignMatrix setRow ", r, " out of range ", rows_);
    packSigns(v, dim_, words_.data() + r * wordsPerRow_);
}

void
SignMatrix::appendRow(const float *v)
{
    LS_ASSERT(dim_ > 0, "appendRow on a dimensionless SignMatrix");
    const size_t base = words_.size();
    // LS_LINT_ALLOW(alloc): amortized append; geometric growth
    words_.resize(base + wordsPerRow_);
    packSigns(v, dim_, words_.data() + base);
    ++rows_;
}

void
SignMatrix::appendSigns(const SignBits &s)
{
    LS_ASSERT(s.dim() == dim_, "appendSigns dim mismatch: ", s.dim(),
              " vs ", dim_);
    words_.insert(words_.end(), s.words().begin(), s.words().end());
    ++rows_;
}

const uint64_t *
SignMatrix::row(size_t r) const
{
    LS_ASSERT(r < rows_, "SignMatrix row ", r, " out of range ", rows_);
    return words_.data() + r * wordsPerRow_;
}

SignBits
SignMatrix::extract(size_t r) const
{
    const uint64_t *w = row(r);
    // Rebuild a float vector whose signs match, then repack — keeps
    // packSigns the single packing implementation.
    std::vector<float> v(dim_);
    for (size_t i = 0; i < dim_; ++i)
        v[i] = ((w[i >> 6] >> (i & 63)) & 1) ? 1.0f : -1.0f;
    return SignBits(v.data(), dim_);
}

int
SignMatrix::concordanceRow(const SignBits &query, size_t r) const
{
    LS_ASSERT(query.dim() == dim_, "concordanceRow dim mismatch");
    const uint64_t *w = row(r);
    int mismatches = 0;
    for (size_t i = 0; i < wordsPerRow_; ++i)
        mismatches += std::popcount(w[i] ^ query.words()[i]);
    return static_cast<int>(dim_) - mismatches;
}

SignMatrix
SignMatrix::pack(const float *data, size_t count, size_t dim)
{
    SignMatrix m(dim);
    m.reserveRows(count);
    for (size_t r = 0; r < count; ++r)
        m.appendRow(data + r * dim);
    return m;
}

} // namespace longsight
