#include "tensor/sign_matrix.hh"

#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {

SignMatrix::SignMatrix(size_t dim)
    : dim_(dim), wordsPerRow_((dim + 63) / 64)
{
    LS_ASSERT(dim > 0, "SignMatrix dimension must be positive");
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

const uint64_t *
SignMatrix::row(size_t r) const
{
    LS_ASSERT(r < rows_, "SignMatrix row ", r, " out of range ", rows_);
    return words_.data() + r * wordsPerRow_;
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
