/**
 * @file
 * Perplexity proxy for sparse-attention quality (see DESIGN.md).
 *
 * The paper scores algorithm quality as *relative perplexity increase
 * vs. dense attention*. Cross-entropy is a smooth function of the
 * attention output; to first order the increase is proportional to the
 * attention-output perturbation, which is itself governed by the
 * softmax probability mass the sparse mechanism failed to retain: the
 * lost mass, 1 - sum of the dense softmax probabilities over the
 * tokens the sparse mechanism attended to. Evaluators average it over
 * (query, head) evaluations and map the mean to a relative perplexity
 * increase via dPPL% = 100 * (exp(mean_lost_mass) - 1). Figures report
 * relative numbers, so any monotone calibration yields the same
 * orderings and crossovers.
 */

#ifndef LONGSIGHT_MODEL_PERPLEXITY_HH
#define LONGSIGHT_MODEL_PERPLEXITY_HH

namespace longsight {

/**
 * The proxy's lost-mass -> quality mapping: relative perplexity
 * increase in percent, 100 * (exp(lost_mass) - 1).
 */
double pplIncreasePct(double lost_mass);

} // namespace longsight

#endif // LONGSIGHT_MODEL_PERPLEXITY_HH
