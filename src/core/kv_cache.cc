#include "core/kv_cache.hh"

#include <algorithm>
#include <utility>

#include "tensor/linalg.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace longsight {

KvCache::KvCache(uint32_t head_dim) : headDim_(head_dim), own_(head_dim)
{
    LS_ASSERT(head_dim > 0, "KvCache head dim must be positive");
}

KvCache::KvCache(KvBlockPool &pool)
    : headDim_(pool.headDim()), own_(pool.headDim()), pool_(&pool)
{
}

KvCache::~KvCache() { releaseAll(); }

KvCache::KvCache(const KvCache &o) : KvCache(o.headDim_) { *this = o; }

/** Reproduce o's rotation first, then its rows: a paged copy shares
 *  o's full blocks by refcount, and whatever is left (the partial
 *  tail, or every row of a flat cache) is re-appended privately, so
 *  those rows are recomputed bit-identically and appends to either
 *  cache never touch the other's rows. */
KvCache &
KvCache::operator=(const KvCache &o)
{
    if (this == &o)
        return *this;
    releaseAll();
    headDim_ = o.headDim_;
    own_ = KvRows(headDim_);
    pool_ = o.pool_;
    rotation_ = o.rotation_;
    if (rotation_)
        rows().ensureRotated();
    reserved_ = 0;
    reserve(o.reserved_);
    if (pool_) {
        const size_t bt = pool_->blockTokens();
        for (size_t b = 0; b < o.size_ / bt; ++b) {
            pool_->retainBlock(o.blocks_[b]);
            blocks_.push_back(o.blocks_[b]);
        }
        size_ = blocks_.size() * bt;
    }
    for (size_t i = size_; i < o.size_; ++i)
        append(o.keyRow(i), o.valueRow(i));
    return *this;
}

KvCache::KvCache(KvCache &&o) noexcept : KvCache(o.headDim_)
{
    *this = std::move(o);
}

/** Takes o's rows and block table; o is left an empty cache of the
 *  same mode. */
KvCache &
KvCache::operator=(KvCache &&o) noexcept
{
    if (this == &o)
        return *this;
    releaseAll();
    headDim_ = o.headDim_;
    own_ = std::exchange(o.own_, KvRows(o.headDim_));
    rotation_ = std::exchange(o.rotation_, std::nullopt);
    rotScratch_ = std::move(o.rotScratch_);
    pool_ = o.pool_;
    blocks_ = std::exchange(o.blocks_, {});
    size_ = std::exchange(o.size_, 0);
    reserved_ = std::exchange(o.reserved_, 0);
    return *this;
}

void
KvCache::releaseAll()
{
    for (uint32_t b : blocks_)
        pool_->releaseBlock(b);
    blocks_.clear();
    size_ = 0;
}

void
KvCache::forkFrom(const KvCache &parent)
{
    LS_ASSERT(pool_ && parent.pool_ == pool_,
              "forkFrom requires paged caches sharing one pool");
    LS_ASSERT(size() == 0, "forkFrom target must be empty");
    *this = parent;
}

size_t
KvCache::publishPrefix(uint64_t hash)
{
    LS_ASSERT(pool_, "publishPrefix requires a paged cache");
    const size_t full = size_ / pool_->blockTokens();
    if (full == 0)
        return 0;
    if (!pool_->publishPrefix(hash, blocks_.data(), full))
        return 0;
    return full * pool_->blockTokens();
}

size_t
KvCache::adoptPrefix(uint64_t hash)
{
    LS_ASSERT(pool_, "adoptPrefix requires a paged cache");
    LS_ASSERT(size() == 0, "adoptPrefix target must be empty");
    size_ = pool_->adoptPrefix(hash, blocks_);
    return size_;
}

void
KvCache::append(const std::vector<float> &key, const std::vector<float> &value)
{
    LS_ASSERT(key.size() == headDim_ && value.size() == headDim_,
              "KvCache append dim mismatch");
    append(key.data(), value.data());
}

void
KvCache::append(const float *key, const float *value)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    const float *rotated = nullptr;
    if (rotation_) {
        // Member scratch: capacity persists across appends, so the
        // rotation adds no steady-state allocation to the decode step.
        rotScratch_.resize(headDim_); // LS_LINT_ALLOW(alloc): sized once, capacity persists
        gemvT(*rotation_, key, rotScratch_.data());
        rotated = rotScratch_.data();
    }
    rows().writeToken(claimRow(), key, value, rotated);
    ++size_;
}

/** Physical row for token size(): the next row of a flat store, or the
 *  next slot of the tail block — a fresh one at each block boundary. */
size_t
KvCache::claimRow()
{
    if (pool_ && size_ % pool_->blockTokens() == 0) {
        const uint32_t b = pool_->allocBlock();
        LS_ASSERT(b != kInvalidBlock,
                  "KvBlockPool exhausted: admission control must "
                  "bound concurrent context to the block budget");
        // LS_LINT_ALLOW(alloc): table growth; reserve() preallocates
        blocks_.push_back(b);
    }
    return physRow(size_);
}

void
KvCache::reserve(size_t n)
{
    reserved_ = std::max(reserved_, n);
    if (pool_)
        blocks_.reserve((n + pool_->blockTokens() - 1) /
                        pool_->blockTokens());
    else
        own_.reserve(n);
}

void
KvCache::appendAll(const Matrix &keys, const Matrix &values)
{
    LS_ASSERT(keys.rows() == values.rows() && keys.cols() == headDim_ &&
                  values.cols() == headDim_,
              "KvCache appendAll shape mismatch");
    for (size_t i = 0; i < keys.rows(); ++i)
        append(keys.row(i), values.row(i));
}

void
KvCache::mapToPhysical(const uint32_t *logical, size_t count,
                       uint32_t *physical) const
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    if (!pool_) {
        for (size_t j = 0; j < count; ++j)
            physical[j] = logical[j];
        return;
    }
    const size_t bt = pool_->blockTokens();
    for (size_t j = 0; j < count; ++j) {
        const size_t i = logical[j];
        physical[j] =
            static_cast<uint32_t>(size_t{blocks_[i / bt]} * bt + i % bt);
    }
}

size_t
KvCache::collectSpans(size_t lo, size_t hi, ScanSpan *out) const
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    LS_ASSERT(lo <= hi && hi <= size(), "collectSpans range [", lo, ",",
              hi, ") out of ", size());
    if (lo == hi)
        return 0;
    if (!pool_) {
        out[0] = ScanSpan{lo, hi - lo, lo};
        return 1;
    }
    const size_t bt = pool_->blockTokens();
    size_t n = 0;
    size_t at = lo;
    while (at < hi) {
        const size_t off = at % bt;
        const size_t run = std::min(bt - off, hi - at);
        out[n++] = ScanSpan{size_t{blocks_[at / bt]} * bt + off, run, at};
        at += run;
    }
    return n;
}

void
KvCache::recordFilterScan(const ScanSpan &span, uint64_t rows_scanned,
                          uint64_t survivors) const
{
    if (!pool_)
        return;
    pool_->recordScan(
        static_cast<uint32_t>(span.physBegin / pool_->blockTokens()),
        rows_scanned, survivors);
}

SignBits
KvCache::rawSigns(size_t i) const
{
    LS_ASSERT(i < size(), "rawSigns index out of range");
    return rows().rawSigns().extract(physRow(i));
}

SignBits
KvCache::filterSigns(size_t i) const
{
    LS_ASSERT(i < size(), "filterSigns index out of range");
    return filterSignsStorage().extract(physRow(i));
}

/** CoW unshare: give this cache a private copy of every block it
 *  currently shares (refcount > 1; a flat cache holds none). */
void
KvCache::unshareAll()
{
    for (uint32_t &b : blocks_) {
        if (pool_->refCount(b) <= 1)
            continue;
        const uint32_t fresh = pool_->allocBlock();
        LS_ASSERT(fresh != kInvalidBlock,
                  "KvBlockPool exhausted during copy-on-write unshare");
        pool_->copyBlock(b, fresh);
        pool_->releaseBlock(b);
        b = fresh;
    }
}

void
KvCache::setItqRotation(Matrix rotation)
{
    LS_ASSERT(rotation.rows() == headDim_ && rotation.cols() == headDim_,
              "ITQ rotation must be headDim x headDim");
    rotation_ = std::move(rotation);
    // Rotated sign rows become per-cache content once caches can
    // carry different rotations, so shared blocks must split.
    unshareAll();
    KvRows &r = rows();
    r.ensureRotated();
    rotScratch_.resize(headDim_);
    for (size_t i = 0; i < size_; ++i) {
        gemvT(*rotation_, keyRow(i), rotScratch_.data());
        r.writeRotatedSigns(physRow(i), rotScratch_.data());
    }
}

const Matrix &
KvCache::itqRotation() const
{
    LS_ASSERT(rotation_.has_value(), "no ITQ rotation installed");
    return *rotation_;
}

std::vector<float>
KvCache::toFilterSpace(const std::vector<float> &q) const
{
    LS_ASSERT(q.size() == headDim_, "query dim mismatch");
    if (!rotation_)
        return q;
    return gemvT(*rotation_, q);
}

void
KvCache::toFilterSpace(const float *q, float *out) const
{
    if (!rotation_) {
        for (uint32_t d = 0; d < headDim_; ++d)
            out[d] = q[d];
        return;
    }
    gemvT(*rotation_, q, out);
}

} // namespace longsight
