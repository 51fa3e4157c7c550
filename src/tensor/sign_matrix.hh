/**
 * @file
 * SignMatrix — contiguous structure-of-arrays storage for the packed
 * sign bits of many keys. This is the host-side mirror of the paper's
 * per-bank Key Sign Object: one row of (dim+63)/64 little-endian
 * 64-bit words per key, rows laid out back to back in one 64-byte
 * aligned buffer so the batch-scan kernels (tensor/kernels.hh) can
 * stream XOR+popcount over whole 128-key bursts without pointer
 * chasing. It replaces the std::vector<SignBits> (vector-of-vectors)
 * storage that made the SCF hot loop cache-hostile.
 *
 * Append-friendly: rows are added one at a time as keys arrive
 * (KvCache::append) with amortized O(wordsPerRow) cost; the buffer
 * grows geometrically and always stays 64-byte aligned.
 */

#ifndef LONGSIGHT_TENSOR_SIGN_MATRIX_HH
#define LONGSIGHT_TENSOR_SIGN_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "tensor/signbits.hh"

namespace longsight {

/** Minimal aligned allocator so std::vector storage lands on a
 *  64-byte (cache line / AVX-512 friendly) boundary. */
template <class T, std::size_t Align>
struct AlignedAllocator
{
    using value_type = T;

    // allocator_traits cannot rebind through the non-type Align
    // parameter on its own; spell it out.
    template <class U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    AlignedAllocator() = default;
    template <class U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {
    }

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }
    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(Align));
    }

    template <class U>
    bool operator==(const AlignedAllocator<U, Align> &) const
    {
        return true;
    }
};

/**
 * Packed sign bits of a growable set of same-dimension vectors,
 * stored row-major in one contiguous aligned buffer.
 */
class SignMatrix
{
  public:
    SignMatrix() = default;

    /** An empty matrix whose future rows have `dim` sign bits. */
    explicit SignMatrix(size_t dim);

    size_t dim() const { return dim_; }
    size_t rows() const { return rows_; }
    bool empty() const { return rows_ == 0; }

    /** 64-bit words per row: (dim + 63) / 64. */
    size_t wordsPerRow() const { return wordsPerRow_; }

    /** Reserve capacity for n rows. */
    void reserveRows(size_t n) { words_.reserve(n * wordsPerRow_); }

    /**
     * Resize to exactly n rows, zero-filling any new ones (existing
     * rows are preserved). The fixed-capacity form the block pool
     * uses: rows are then overwritten in place with setRow() instead
     * of appended, so the buffer never reallocates afterwards.
     */
    void resizeRows(size_t n);

    /** Append the signs of a dim-long float vector (packSigns). */
    void appendRow(const float *v);

    /** Overwrite row r with the signs of a dim-long float vector
     *  (packSigns). */
    void setRow(size_t r, const float *v);

    /** Packed words of row r (wordsPerRow() of them). */
    const uint64_t *row(size_t r) const;

    /** Whole backing buffer: rows() * wordsPerRow() words. */
    const uint64_t *data() const { return words_.data(); }
    uint64_t *data() { return words_.data(); }

    bool operator==(const SignMatrix &other) const = default;

    /** Pack every row of a (count x dim) float array. */
    static SignMatrix pack(const float *data, size_t count, size_t dim);

  private:
    size_t dim_ = 0;
    size_t wordsPerRow_ = 0;
    size_t rows_ = 0;
    std::vector<uint64_t, AlignedAllocator<uint64_t, 64>> words_;
};

} // namespace longsight

#endif // LONGSIGHT_TENSOR_SIGN_MATRIX_HH
