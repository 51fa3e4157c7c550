/**
 * @file
 * Per-(user, layer, KV-head) Key/Value store. This is the functional
 * twin of the paper's "vector database" view of the KV cache (§4):
 * post-RoPE keys and values indexed by token position, with packed
 * sign bits maintained incrementally for SCF. When an ITQ rotation is
 * installed, sign bits are taken from the rotated keys while scoring
 * still uses the original keys (an orthogonal rotation leaves dot
 * products unchanged, so only the one-bit quantization sees it).
 *
 * Every cache reads and writes one KvRows store at physRow(i); the
 * two modes differ only in whose store it is and how tokens map to
 * its rows:
 *
 *  - **Flat** (`KvCache(head_dim)`): the cache owns a KvRows that
 *    grows by a row per append; logical token i is physical row i.
 *  - **Paged** (`KvCache(pool)`): the cache owns a *block table* — a
 *    list of fixed-size block ids in a shared KvBlockPool — and
 *    logical token i lives at physical row
 *    `blocks[i / blockTokens] * blockTokens + i % blockTokens` of the
 *    pool's KvRows. Blocks support copy-on-write prefix sharing
 *    (forkFrom / publishPrefix / adoptPrefix) and carry the SCF
 *    survivor counters that drive HBM-vs-expander residency.
 *
 * Consumers scan through collectSpans(): each ScanSpan is one
 * contiguous physical run covering an ascending logical range (a flat
 * cache yields the single identity span), so the span-aware kernel
 * drivers (tensor/kernels.hh) produce results element-identical
 * across layouts for any block size.
 */

#ifndef LONGSIGHT_CORE_KV_CACHE_HH
#define LONGSIGHT_CORE_KV_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/kv_block_pool.hh"
#include "tensor/kernels.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"
#include "tensor/tensor.hh"

namespace longsight {

/**
 * Growable KV store for one attention head's context.
 */
class KvCache
{
  public:
    /** Flat mode: a private row store. */
    explicit KvCache(uint32_t head_dim);

    /** Paged mode: block-table view over a shared pool. The pool must
     *  outlive every cache built on it. */
    explicit KvCache(KvBlockPool &pool);

    ~KvCache();
    KvCache(const KvCache &o);
    KvCache &operator=(const KvCache &o);
    KvCache(KvCache &&o) noexcept;
    KvCache &operator=(KvCache &&o) noexcept;

    bool paged() const { return pool_ != nullptr; }

    uint32_t headDim() const { return headDim_; }
    size_t size() const { return size_; }

    /** Append one (post-RoPE key, value) pair. */
    void append(const std::vector<float> &key, const std::vector<float> &value);

    /** Raw-span append (key/value: headDim() floats each). */
    void append(const float *key, const float *value);

    /**
     * Reserve capacity for n total entries (a flat cache's row stores,
     * a paged cache's block table), so subsequent appends up to n
     * perform no heap allocation. Decode loops that know their context
     * ceiling call this once up front to keep the steady-state step
     * allocation-free. The ceiling is remembered: installing an ITQ
     * rotation later re-applies it to the rotated-sign store.
     */
    void reserve(size_t n);

    /** Bulk-append rows of two (n x headDim) matrices. */
    void appendAll(const Matrix &keys, const Matrix &values);

    /** Backing store holding this cache's key rows (the pool's in
     *  paged mode; exactly size() rows when flat); index with
     *  physRow(). */
    const Matrix &keysStorage() const { return rows().keys(); }
    const Matrix &valuesStorage() const { return rows().values(); }

    /** Physical storage row of logical token i. */
    size_t physRow(size_t i) const
    {
        if (!pool_)
            return i;
        const size_t bt = pool_->blockTokens();
        return size_t{blocks_[i / bt]} * bt + i % bt;
    }

    const float *keyRow(size_t i) const
    {
        return keysStorage().row(physRow(i));
    }
    const float *valueRow(size_t i) const
    {
        return valuesStorage().row(physRow(i));
    }

    /** Map `count` logical indices to physical rows (hot: the sparse
     *  gather path translates selected token ids before fetching). */
    void mapToPhysical(const uint32_t *logical, size_t count,
                       uint32_t *physical) const;

    /** Upper bound on collectSpans(lo, hi) output length. */
    size_t maxSpans(size_t lo, size_t hi) const
    {
        if (!pool_)
            return 1;
        return (hi - lo + pool_->blockTokens() - 1) / pool_->blockTokens() +
               1;
    }

    /**
     * Decompose logical range [lo, hi) into contiguous physical spans
     * in ascending logical order (never crossing a block boundary in
     * paged mode; the single identity span when flat). Returns the
     * span count written to out (capacity: maxSpans(lo, hi)).
     */
    size_t collectSpans(size_t lo, size_t hi, ScanSpan *out) const;

    /**
     * The single span starting at logical lo, clamped to hi — the
     * incremental form of collectSpans() for walkers that need no
     * span array: advance by .count until hi.
     */
    ScanSpan spanAt(size_t lo, size_t hi) const
    {
        if (!pool_)
            return ScanSpan{lo, hi - lo, lo};
        const size_t bt = pool_->blockTokens();
        const size_t off = lo % bt;
        return ScanSpan{size_t{blocks_[lo / bt]} * bt + off,
                        std::min(bt - off, hi - lo), lo};
    }

    /**
     * Credit a filter pass over one collectSpans() span to the pool's
     * residency counters (no-op when flat). rows_scanned counts
     * query x row candidate pairs; survivors those past threshold.
     */
    void recordFilterScan(const ScanSpan &span, uint64_t rows_scanned,
                          uint64_t survivors) const;

    /** Sign bits of the raw (unrotated) key i. */
    SignBits rawSigns(size_t i) const;

    /**
     * Sign bits used for filtering: ITQ-rotated when a rotation is
     * installed, raw otherwise.
     */
    SignBits filterSigns(size_t i) const;

    /** Backing sign store for filtering (rotation-aware; the pool's
     *  in paged mode); index with physRow() / collectSpans(). */
    const SignMatrix &filterSignsStorage() const
    {
        return rotation_ ? rows().rotatedSigns() : rows().rawSigns();
    }

    /**
     * Install (or replace) the ITQ rotation; recomputes the rotated
     * sign bits of every stored key. In paged mode this first unshares
     * any CoW-shared blocks: rotated sign rows are per-cache content
     * once caches can carry different rotations.
     */
    void setItqRotation(Matrix rotation);

    bool hasItqRotation() const { return rotation_.has_value(); }
    const Matrix &itqRotation() const;

    /**
     * Rotate a query into filter space (x * R); identity copy when no
     * rotation is installed.
     */
    std::vector<float> toFilterSpace(const std::vector<float> &q) const;

    /** toFilterSpace into caller storage (out: headDim() floats). */
    void toFilterSpace(const float *q, float *out) const;

    // ---- Paged-mode sharing ----------------------------------------
    /**
     * Become a copy-on-write fork of `parent` (paged, same pool; this
     * cache must be empty): full blocks are shared by refcount, the
     * partial tail block is re-appended into private storage so this
     * cache's appends never touch shared rows.
     */
    void forkFrom(const KvCache &parent);

    /** Publish this cache's full blocks as prefix `hash` in the pool
     *  registry. Returns tokens published (0 if none or taken). */
    size_t publishPrefix(uint64_t hash);

    /** Adopt published prefix `hash` (cache must be empty). Returns
     *  tokens adopted (0 on miss). */
    size_t adoptPrefix(uint64_t hash);

  private:
    /** The row store: the pool's when paged, own_ when flat. */
    const KvRows &rows() const { return pool_ ? pool_->rows() : own_; }
    KvRows &rows() { return pool_ ? pool_->rows() : own_; }

    size_t claimRow();
    void releaseAll();
    void unshareAll();

    uint32_t headDim_;
    KvRows own_;                    //!< flat mode's rows (unused paged)
    std::optional<Matrix> rotation_;
    std::vector<float> rotScratch_; //!< reused rotated-key buffer

    KvBlockPool *pool_ = nullptr;   //!< non-null in paged mode
    std::vector<uint32_t> blocks_;  //!< block table (paged)
    size_t size_ = 0;               //!< logical tokens
    size_t reserved_ = 0;           //!< remembered reserve() ceiling
};

} // namespace longsight

#endif // LONGSIGHT_CORE_KV_CACHE_HH
