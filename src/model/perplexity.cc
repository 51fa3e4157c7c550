#include "model/perplexity.hh"

#include <cmath>

#include "util/logging.hh"

namespace longsight {

void
PerplexityProxy::record(const std::vector<float> &dense_probs,
                        const std::vector<uint32_t> &attended,
                        const std::vector<float> &dense_out,
                        const std::vector<float> &sparse_out)
{
    double retained = 0.0;
    for (uint32_t idx : attended) {
        LS_ASSERT(idx < dense_probs.size(),
                  "attended index ", idx, " beyond context ",
                  dense_probs.size());
        retained += dense_probs[idx];
    }
    // Clamp: fp accumulation can nudge a full cover slightly past 1.
    lostMass_.add(std::max(0.0, 1.0 - retained));

    if (!dense_out.empty()) {
        LS_ASSERT(dense_out.size() == sparse_out.size(),
                  "output size mismatch in perplexity record");
        double err = 0.0, ref = 0.0;
        for (size_t i = 0; i < dense_out.size(); ++i) {
            const double d =
                static_cast<double>(sparse_out[i]) - dense_out[i];
            err += d * d;
            ref += static_cast<double>(dense_out[i]) * dense_out[i];
        }
        outputError_.add(ref > 0 ? std::sqrt(err / ref) : 0.0);
    }
}

void
PerplexityProxy::recordLostMass(double lost_mass)
{
    lostMass_.add(lost_mass);
}

double
pplIncreasePct(double lost_mass)
{
    return 100.0 * (std::exp(lost_mass) - 1.0);
}

double
PerplexityProxy::relPplIncreasePct(double kappa) const
{
    return pplIncreasePct(kappa * meanLostMass());
}

void
PerplexityProxy::merge(const PerplexityProxy &other)
{
    lostMass_.merge(other.lostMass_);
    outputError_.merge(other.outputError_);
}

} // namespace longsight
