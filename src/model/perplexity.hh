/**
 * @file
 * Perplexity proxy for sparse-attention quality (see DESIGN.md).
 *
 * The paper scores algorithm quality as *relative perplexity increase
 * vs. dense attention*. Cross-entropy is a smooth function of the
 * attention output; to first order the increase is proportional to the
 * attention-output perturbation, which is itself governed by the
 * softmax probability mass the sparse mechanism failed to retain.
 * PerplexityProxy therefore accumulates, per evaluated (query, head):
 *
 *  - lost mass: 1 - sum of dense softmax probabilities over the tokens
 *    the sparse mechanism attended to, and
 *  - output error: ||o_sparse - o_dense|| / ||o_dense||, with o_sparse
 *    computed from renormalized probabilities over the attended set,
 *
 * and maps the mean lost mass to a relative perplexity increase via
 * dPPL% = 100 * (exp(kappa * mean_lost_mass) - 1). kappa = 1 is the
 * identity first-order mapping; figures report relative numbers so any
 * monotone calibration yields the same orderings and crossovers.
 */

#ifndef LONGSIGHT_MODEL_PERPLEXITY_HH
#define LONGSIGHT_MODEL_PERPLEXITY_HH

#include <cstdint>
#include <vector>

#include "util/stats.hh"

namespace longsight {

/**
 * The proxy's lost-mass -> quality mapping: relative perplexity
 * increase in percent, 100 * (exp(lost_mass) - 1).
 */
double pplIncreasePct(double lost_mass);

/**
 * Accumulates sparse-vs-dense attention fidelity across evaluation
 * steps and converts it to a relative-perplexity score.
 */
class PerplexityProxy
{
  public:
    /**
     * Record one (query, head) evaluation.
     *
     * @param dense_probs full dense softmax over the entire context
     * @param attended    token indices the sparse mechanism attended to
     * @param dense_out   exact attention output (may be empty to skip
     *                    the output-error metric)
     * @param sparse_out  sparse attention output (same length)
     */
    void record(const std::vector<float> &dense_probs,
                const std::vector<uint32_t> &attended,
                const std::vector<float> &dense_out = {},
                const std::vector<float> &sparse_out = {});

    /** Record pre-computed lost mass directly. */
    void recordLostMass(double lost_mass);

    /** Mean softmax mass lost across all recorded evaluations. */
    double meanLostMass() const { return lostMass_.mean(); }

    /** Mean relative output error (only over records that supplied it). */
    double meanOutputError() const { return outputError_.mean(); }

    /** Relative perplexity increase in percent. */
    double relPplIncreasePct(double kappa = 1.0) const;

    uint64_t evaluations() const { return lostMass_.count(); }

    void merge(const PerplexityProxy &other);

  private:
    RunningStat lostMass_;
    RunningStat outputError_;
};

} // namespace longsight

#endif // LONGSIGHT_MODEL_PERPLEXITY_HH
