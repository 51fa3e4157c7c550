#include "eval/sparse_baselines.hh"

#include <algorithm>

#include "tensor/linalg.hh"
#include "util/logging.hh"

namespace longsight {

KMeansIndex::KMeansIndex(const Matrix &keys, uint32_t num_clusters,
                         int iterations, Rng &rng)
    : dim_(static_cast<uint32_t>(keys.cols()))
{
    const size_t n = keys.rows();
    LS_ASSERT(num_clusters >= 1 && num_clusters <= n,
              "cluster count out of range");

    // Init: distinct random keys as centroids.
    const auto perm = rng.permutation(static_cast<uint32_t>(n));
    centroids_.resize(num_clusters, dim_);
    for (uint32_t c = 0; c < num_clusters; ++c)
        centroids_.setRow(c, keys.row(perm[c]));

    std::vector<uint32_t> assign(n, 0);
    for (int it = 0; it < iterations; ++it) {
        // Assign.
        for (size_t i = 0; i < n; ++i)
            assign[i] = nearestCentroid(keys.row(i));
        buildWork_ += n * num_clusters;
        // Update.
        Matrix sums(num_clusters, dim_);
        std::vector<uint32_t> counts(num_clusters, 0);
        for (size_t i = 0; i < n; ++i) {
            float *row = sums.row(assign[i]);
            for (uint32_t d = 0; d < dim_; ++d)
                row[d] += keys(i, d);
            ++counts[assign[i]];
        }
        for (uint32_t c = 0; c < num_clusters; ++c) {
            if (counts[c] == 0)
                continue; // keep the old centroid
            for (uint32_t d = 0; d < dim_; ++d)
                centroids_(c, d) = sums(c, d) / counts[c];
        }
    }

    members_.assign(num_clusters, {});
    for (size_t i = 0; i < n; ++i) {
        assign[i] = nearestCentroid(keys.row(i));
        members_[assign[i]].push_back(static_cast<uint32_t>(i));
    }
    buildWork_ += n * num_clusters;
}

uint32_t
KMeansIndex::nearestCentroid(const float *v) const
{
    // Dot-product similarity, matching the attention metric.
    uint32_t best = 0;
    float best_score = dot(v, centroids_.row(0), dim_);
    for (size_t c = 1; c < centroids_.rows(); ++c) {
        const float s = dot(v, centroids_.row(c), dim_);
        if (s > best_score) {
            best_score = s;
            best = static_cast<uint32_t>(c);
        }
    }
    return best;
}

std::vector<uint32_t>
KMeansIndex::candidates(const float *q, uint32_t probes) const
{
    probes = std::min<uint32_t>(probes, numClusters());
    std::vector<std::pair<float, uint32_t>> scored(numClusters());
    for (uint32_t c = 0; c < numClusters(); ++c)
        scored[c] = {dot(q, centroids_.row(c), dim_), c};
    std::partial_sort(scored.begin(), scored.begin() + probes,
                      scored.end(), std::greater<>());
    std::vector<uint32_t> out;
    for (uint32_t p = 0; p < probes; ++p)
        for (uint32_t tok : members_[scored[p].second])
            out.push_back(tok);
    std::sort(out.begin(), out.end());
    return out;
}

LshIndex::LshIndex(const Matrix &keys, uint32_t num_tables,
                   uint32_t bits_per_table, Rng &rng)
    : dim_(static_cast<uint32_t>(keys.cols())), bits_(bits_per_table)
{
    LS_ASSERT(bits_per_table >= 1 && bits_per_table <= 20,
              "bits per table out of range");
    planes_.reserve(num_tables);
    buckets_.assign(num_tables, {});
    for (uint32_t t = 0; t < num_tables; ++t) {
        planes_.emplace_back(bits_, dim_,
                             rng.gaussianVec(bits_ * dim_));
        buckets_[t].assign(1ULL << bits_, {});
    }
    for (size_t i = 0; i < keys.rows(); ++i) {
        for (uint32_t t = 0; t < num_tables; ++t) {
            const uint32_t h = hashOf(t, keys.row(i));
            buckets_[t][h].push_back(static_cast<uint32_t>(i));
        }
        buildWork_ += num_tables;
    }
}

uint32_t
LshIndex::hashOf(uint32_t table, const float *v) const
{
    uint32_t h = 0;
    for (uint32_t b = 0; b < bits_; ++b) {
        if (dot(v, planes_[table].row(b), dim_) >= 0.0f)
            h |= 1u << b;
    }
    return h;
}

std::vector<uint32_t>
LshIndex::candidates(const float *q) const
{
    std::vector<uint32_t> out;
    for (uint32_t t = 0; t < planes_.size(); ++t) {
        const auto &bucket = buckets_[t][hashOf(t, q)];
        out.insert(out.end(), bucket.begin(), bucket.end());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace longsight
