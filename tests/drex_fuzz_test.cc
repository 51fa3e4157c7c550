/**
 * @file
 * Randomized differential test: for many random configurations
 * (context length, threshold, k, query-group size, ITQ on/off),
 * the DReX device's functional offload
 * must agree with the independent software reference (filter ->
 * score -> rank), and its timing must satisfy basic sanity
 * invariants. This is the broad-spectrum check behind the targeted
 * equivalence tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/attention.hh"
#include "core/itq.hh"
#include "core/scf.hh"
#include "core/topk.hh"
#include "drex/drex_device.hh"
#include "tensor/linalg.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

class DrexFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DrexFuzz, DeviceAgreesWithSoftwareReference)
{
    Rng rng(GetParam());
    const uint32_t dim = rng.uniform() < 0.5 ? 64 : 128;
    const size_t n = 100 + rng.below(2500);
    const int threshold = static_cast<int>(rng.below(dim * 3 / 4));
    const uint32_t k = 1 + static_cast<uint32_t>(rng.below(200));
    const auto num_queries = 1 + static_cast<uint32_t>(rng.below(4));
    const bool use_itq = rng.uniform() < 0.4;
    const uint64_t begin = rng.below(n / 2);
    const uint64_t end = begin + 1 + rng.below(n - begin);

    DrexConfig dc;
    dc.numKvHeads = 1;
    dc.numLayers = 1;
    dc.headDim = dim;
    DrexDevice dev(dc);
    Matrix keys(n, dim, rng.gaussianVec(n * dim));
    Matrix values(n, dim, rng.gaussianVec(n * dim));
    KvCache &cache = dev.writeContext(0, 0, 0, keys, values);
    if (use_itq)
        cache.setItqRotation(trainItqRotation(keys, 5, rng));

    Matrix queries(num_queries, dim, rng.gaussianVec(num_queries * dim));
    Matrix filter_queries(num_queries, dim);
    for (uint32_t q = 0; q < num_queries; ++q) {
        const auto qf = cache.toFilterSpace(queries.rowVec(q));
        filter_queries.setRow(q, qf.data());
    }

    OffloadSpec spec;
    spec.sparseBegin = begin;
    spec.sparseEnd = end;
    spec.numQueries = num_queries;
    spec.k = k;
    spec.threshold = threshold;
    spec.cache = &cache;
    spec.queries = &queries;
    spec.filterQueries = &filter_queries;

    const OffloadResult r = dev.nma(0).process(0, spec);

    // Timing sanity.
    EXPECT_EQ(r.timing.total(), r.doneTick - r.startTick);
    EXPECT_EQ(r.regionTokens, end - begin);
    EXPECT_LE(r.survivors, r.regionTokens);

    // Functional agreement per query.
    const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
    ASSERT_EQ(r.topk.size(), num_queries);
    for (uint32_t q = 0; q < num_queries; ++q) {
        const SignBits qs(filter_queries.row(q), dim);
        std::vector<uint32_t> survivors;
        // Scalar reference on purpose: extract() + SignBits keeps this
        // check independent of the batch kernels the device now uses.
        const SignMatrix &signs = cache.filterSignsStorage();
        for (uint64_t i = begin; i < end; ++i)
            if (qs.concordance(signs.extract(i)) >= threshold)
                survivors.push_back(static_cast<uint32_t>(i));
        std::vector<float> scores(survivors.size());
        for (size_t j = 0; j < survivors.size(); ++j)
            scores[j] = dot(queries.row(q),
                            cache.keysStorage().row(survivors[j]), dim) *
                scale;
        const auto expect = topkSelect(scores, survivors, k);
        ASSERT_EQ(r.topk[q].size(), expect.size())
            << "seed " << GetParam() << " query " << q;
        for (size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(r.topk[q][i].index, expect[i].index)
                << "seed " << GetParam() << " query " << q << " rank "
                << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrexFuzz,
                         ::testing::Range<uint64_t>(1, 25));

} // namespace
} // namespace longsight
