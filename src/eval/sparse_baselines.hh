/**
 * @file
 * Software sparse-attention baselines the paper positions LongSight
 * against (§3.1, §4): a clustering-based ANNS index (Squeezed-
 * Attention-style: score centroids, scan the members of the top
 * probed clusters) and a Reformer-style LSH index (random-hyperplane
 * buckets, scan colliding buckets across tables). Both expose the
 * same candidate-generation interface as SCF so the comparison bench
 * can hold the candidate budget fixed and compare retained softmax
 * mass — plus the two costs the paper argues make ANNS a poor fit for
 * the KV cache: index construction and per-token update work.
 */

#ifndef LONGSIGHT_EVAL_SPARSE_BASELINES_HH
#define LONGSIGHT_EVAL_SPARSE_BASELINES_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace longsight {

/**
 * Lloyd's k-means over key vectors with inverted cluster lists.
 */
class KMeansIndex
{
  public:
    /**
     * Build over `keys` (token-major).
     *
     * @param num_clusters centroid count
     * @param iterations Lloyd iterations
     */
    KMeansIndex(const Matrix &keys, uint32_t num_clusters, int iterations,
                Rng &rng);

    /** Tokens in the `probes` clusters whose centroids score highest. */
    std::vector<uint32_t> candidates(const float *q,
                                     uint32_t probes) const;

    /** Distance computations spent building the index. */
    uint64_t buildDistanceComputations() const { return buildWork_; }

    uint32_t numClusters() const
    {
        return static_cast<uint32_t>(centroids_.rows());
    }

  private:
    uint32_t nearestCentroid(const float *v) const;

    uint32_t dim_;
    Matrix centroids_;
    std::vector<std::vector<uint32_t>> members_;
    uint64_t buildWork_ = 0;
};

/**
 * Random-hyperplane LSH with multiple tables (Reformer-style
 * bucketing; §3.1 notes its multi-round storage/recompute overheads).
 */
class LshIndex
{
  public:
    LshIndex(const Matrix &keys, uint32_t num_tables,
             uint32_t bits_per_table, Rng &rng);

    /** Union of the query's bucket across all tables (deduplicated). */
    std::vector<uint32_t> candidates(const float *q) const;

    /** Hash evaluations spent building. */
    uint64_t buildHashComputations() const { return buildWork_; }

  private:
    uint32_t hashOf(uint32_t table, const float *v) const;

    uint32_t dim_;
    uint32_t bits_;
    std::vector<Matrix> planes_; //!< per table: bits x dim
    std::vector<std::vector<std::vector<uint32_t>>> buckets_;
    uint64_t buildWork_ = 0;
};

} // namespace longsight

#endif // LONGSIGHT_EVAL_SPARSE_BASELINES_HH
