/**
 * @file
 * Fast quality-evaluation harness for the algorithm experiments
 * (Figures 3, 4, 10). For a fixed workload and query sample set it
 * precomputes, once per (head, query):
 *
 *  - the exact dense softmax probabilities over the whole context,
 *  - the raw attention scores, and
 *  - the sign-concordance of every key with the query, in both raw
 *    and ITQ-rotated sign space,
 *
 * after which *any* hybrid configuration (window W, top-k, sinks,
 * per-head thresholds, raw-vs-ITQ) is evaluated in O(context) per
 * query with no re-computation of attention. This is what makes the
 * paper's parameter sweeps (hundreds of configurations) cheap enough
 * to reproduce on one core.
 */

#ifndef LONGSIGHT_EVAL_ALGO_EVAL_HH
#define LONGSIGHT_EVAL_ALGO_EVAL_HH

#include <cstdint>
#include <vector>

#include "core/filter_stats.hh"
#include "model/workload.hh"

namespace longsight {

/**
 * Candidate filter families the evaluator sweeps over the sparse
 * region. Only Scf runs at decode time (core/scf.hh); Int8 and
 * Centroid are the estimation-family alternatives the Pareto harness
 * places against it.
 */
enum class FilterKind : uint8_t
{
    Scf,      //!< 1-bit sign-concordance scan (the paper's SCF)
    Int8,     //!< INT8 quantized-score estimation over every key
    Centroid, //!< block-centroid scoring, descend into winners
};

/**
 * One hybrid-attention configuration to score.
 */
struct EvalConfig
{
    uint32_t windowSize = 1024;
    uint32_t topK = 1024;
    uint32_t sinkTokens = 16;
    std::vector<int> thresholds; //!< per head; empty = all zero
    bool useItq = false;

    /**
     * Candidate filter family for the sparse region. Scf gates by
     * sign concordance (thresholds/useItq apply); Int8 ranks every
     * region token by its INT8-quantized score estimate; Centroid
     * ranks fixed 128-token blocks (kCentroidBlockTokens) by mean-key
     * score and exact-scores the best centroidKeepFraction of them.
     */
    FilterKind filter = FilterKind::Scf;
    double centroidKeepFraction = 0.25;
};

/**
 * Quality/filtering outcome of a configuration.
 */
struct EvalResult
{
    double lostMass = 0.0;      //!< mean dense softmax mass dropped
    double pplIncreasePct = 0.0; //!< first-order perplexity proxy
    double filterRatio = 0.0;    //!< Fig-3 metric
    double sparsity = 0.0;
    /**
     * Mean top-k recall in the sparse region: of the region's truly
     * highest-probability tokens (as many as were selected), the
     * fraction the SCF -> top-k pipeline actually picked. 1.0 means
     * filtering never displaced a true winner.
     */
    double recallAtK = 1.0;
    FilterStats stats;
    std::vector<double> headFilterRatios;
};

/**
 * Precomputed evaluation corpus for one model shape at one context.
 */
class AlgoEvaluator
{
  public:
    /**
     * @param cfg workload statistics (headDim = model head dim)
     * @param num_heads KV heads to simulate (quality statistics
     *        converge quickly; benches use a subset of the model's 8)
     * @param context context length in tokens
     * @param queries_per_head evaluation queries per head
     * @param seed determinism root
     * @param itq_iterations ITQ training alternations (0 = skip ITQ)
     */
    AlgoEvaluator(const WorkloadConfig &cfg, uint32_t num_heads,
                  size_t context, uint32_t queries_per_head, uint64_t seed,
                  int itq_iterations = 20);

    /** Block granularity of the Centroid filter's precomputed block
     *  scores; blocks are aligned to token 0. */
    static constexpr size_t kCentroidBlockTokens = 128;

    size_t context() const { return context_; }
    uint32_t numHeads() const { return numHeads_; }
    uint32_t headDim() const { return headDim_; }

    /** Evaluate one configuration over the whole corpus. */
    EvalResult evaluate(const EvalConfig &cfg) const;

    /**
     * Mass of dense attention outside sinks+window (the quality gap a
     * pure sliding-window baseline cannot close), for a given W.
     */
    double slidingWindowLostMass(uint32_t window, uint32_t sinks) const;

  private:
    struct Sample
    {
        std::vector<float> probs;    //!< dense softmax, length n
        std::vector<float> scores;   //!< raw scores, length n
        std::vector<int> concordRaw; //!< sign concordance, raw space
        std::vector<int> concordItq; //!< sign concordance, ITQ space
        std::vector<uint32_t> probOrder; //!< indices by prob, desc
        std::vector<float> estInt8;  //!< INT8 q8 . k8 score estimates
        std::vector<float> blockScore; //!< per-128-block centroid score
    };

    uint32_t numHeads_;
    uint32_t headDim_;
    size_t context_;
    std::vector<std::vector<Sample>> samples_; //!< [head][query]
};

} // namespace longsight

#endif // LONGSIGHT_EVAL_ALGO_EVAL_HH
