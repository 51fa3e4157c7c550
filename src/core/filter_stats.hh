/**
 * @file
 * Filter-ratio bookkeeping matching the Figure-3 metric: the ratio of
 * KV entries a dense baseline would access to the entries the sparse
 * path actually touches. Dense attention reads one Key and one Value
 * per context token (2 entries/token); the sparse path reads one Key
 * per SCF survivor plus one Value per top-k selection (the survivor's
 * Key was already read while scoring). With threshold 0 and unbounded
 * k the ratio is exactly 1.
 */

#ifndef LONGSIGHT_CORE_FILTER_STATS_HH
#define LONGSIGHT_CORE_FILTER_STATS_HH

#include <cstdint>

namespace longsight {

/**
 * Accumulated sparse-attention access counts over many evaluations.
 */
struct FilterStats
{
    uint64_t rawKeys = 0;      //!< sparse-region tokens (dense would read all)
    uint64_t survivorKeys = 0; //!< keys passing SCF (scored at full precision)
    uint64_t selectedKeys = 0; //!< top-k selections (values retrieved)
    uint64_t evaluations = 0;  //!< number of (query, head) evaluations

    /** Record one evaluation's counts. */
    void record(uint64_t raw, uint64_t survivors, uint64_t selected);

    void merge(const FilterStats &other);

    /** Dense-entries : sparse-entries ratio (>= 1 when filtering). */
    double filterRatio() const;

    /** Fraction of dense accesses avoided: 1 - 1/filterRatio. */
    double sparsity() const;
};

} // namespace longsight

#endif // LONGSIGHT_CORE_FILTER_STATS_HH
