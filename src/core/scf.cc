#include "core/scf.hh"

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace longsight {

bool
scfPasses(const SignBits &query, const SignBits &key, int threshold)
{
    return query.concordance(key) >= threshold;
}

std::vector<uint32_t>
scfFilter(const SignBits &query, const std::vector<SignBits> &keys,
          int threshold, uint32_t base_index)
{
    std::vector<uint32_t> survivors;
    for (uint32_t i = 0; i < keys.size(); ++i) {
        if (scfPasses(query, keys[i], threshold))
            survivors.push_back(base_index + i);
    }
    return survivors;
}

std::vector<uint32_t>
scfFilter(const SignBits &query, const SignMatrix &keys, int threshold,
          uint32_t base_index)
{
    if (keys.rows() == 0)
        return {};
    LS_ASSERT(query.dim() == keys.dim(), "scfFilter dim mismatch: ",
              query.dim(), " vs ", keys.dim());
    // One identity-shaped span whose logical base is base_index: the
    // scan writes base_index + row directly.
    const ScanSpan all{0, keys.rows(), base_index};
    std::vector<uint32_t> survivors(keys.rows());
    size_t count = 0;
    batchScanMultiSpans(query.words().data(), 1, keys, &all, 1, threshold,
                        survivors.data(), survivors.size(), &count);
    survivors.resize(count);
    return survivors;
}

std::vector<uint32_t>
scfFilterRows(const float *query, const Matrix &keys, size_t begin,
              size_t end, int threshold)
{
    LS_ASSERT(end <= keys.rows() && begin <= end,
              "scfFilterRows range [", begin, ",", end, ") out of ",
              keys.rows());
    const SignBits q(query, keys.cols());
    std::vector<uint32_t> survivors;
    for (size_t i = begin; i < end; ++i) {
        const SignBits k(keys.row(i), keys.cols());
        if (scfPasses(q, k, threshold))
            survivors.push_back(static_cast<uint32_t>(i));
    }
    return survivors;
}

} // namespace longsight
