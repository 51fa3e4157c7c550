/**
 * @file
 * Synthetic Q/K/V workload generator standing in for real Llama-3
 * activations (see DESIGN.md "Substitutions").
 *
 * The generator reproduces the statistical properties of LLM
 * key/query distributions that the paper identifies as decisive for
 * Sign-Concordance Filtering and top-k sparse attention:
 *
 *  1. *Clustering* (§5.4: "KV representations in LLaMA models exhibit
 *     strong clustering"): tokens belong to latent topics that evolve
 *     as a sticky Markov chain, so keys form temporally coherent
 *     clusters.
 *
 *  2. *Hierarchical relevance*: every contiguous topic run is a
 *     "segment" with its own identity vector. A query targets one
 *     specific segment (recent with probability queryLocalProb,
 *     otherwise a uniformly random past segment — long-range
 *     retrieval). Dense softmax mass therefore concentrates on a
 *     bounded set of tokens (the target segment) plus a topic halo
 *     that grows with context length — which is exactly why a fixed
 *     small k degrades at long contexts (Fig. 3a) while k ~ 1024
 *     holds up.
 *
 *  3. *Anisotropy / outlier dimensions*: a per-dimension magnitude
 *     spectrum with steep decay. Raw sign bits are then dominated by
 *     a few informative dimensions plus many noise bits — the failure
 *     mode ITQ repairs (§5.4).
 *
 *  4. *Positional rotation*: RoPE is applied to keys and queries after
 *     generation (so ITQ cannot be fused into a projection, §5.4).
 *     Content energy is placed in the slowly-rotating frequency pairs,
 *     matching the documented behaviour of RoPE-trained transformers,
 *     which learn to carry retrievable content in low-frequency
 *     dimensions so long-range matching survives rotation.
 */

#ifndef LONGSIGHT_MODEL_WORKLOAD_HH
#define LONGSIGHT_MODEL_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "model/rope.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace longsight {

/**
 * Tunable statistics of the synthetic KV workload.
 */
struct WorkloadConfig
{
    uint32_t headDim = 64;
    uint32_t numClusters = 12;     //!< latent topics per head
    double stickiness = 0.98;      //!< P(topic unchanged) per token
    double clusterScale = 3.0;     //!< topic-center magnitude
    double segmentScale = 2.4;     //!< per-segment identity magnitude
    double noiseScale = 0.5;       //!< key noise around its center
    double queryNoiseScale = 0.5;  //!< query noise around its center
    double meanScale = 0.6;        //!< global mean offset (sign imbalance)
    double spectrumDecay = 0.93;   //!< per-frequency magnitude decay
    double spectrumFloor = 0.08;   //!< lower bound on dimension scale
    double queryLocalProb = 0.65;  //!< P(query targets a recent segment)
    bool applyRope = true;
    double ropeTheta = 500000.0;   //!< Llama-3 RoPE base

    /**
     * Project-Gutenberg-like statistics (§8.1.1): complete books —
     * long coherent topic runs, fewer distinct topics, and queries
     * that frequently revisit distant chapters.
     */
    static WorkloadConfig pgLike(uint32_t head_dim);

    /**
     * Concatenated-Wiki2-like statistics (§8.1.1): short passages
     * stitched together — frequent topic switches, many topics, and
     * mostly local queries.
     */
    static WorkloadConfig wiki2Like(uint32_t head_dim);
};

/**
 * One KV head's worth of synthetic context: keys, values, and query
 * drawing. Independent heads are created by forking the RNG.
 */
class HeadWorkload
{
  public:
    HeadWorkload(const WorkloadConfig &cfg, Rng rng);

    /** Generate a context of n tokens (replaces any prior context). */
    void generate(size_t n);

    /** Append one more token to the context (decode-time update). */
    void appendToken();

    size_t contextLength() const { return keys_.rows(); }

    /** Post-RoPE keys, one row per token. */
    const Matrix &keys() const { return keys_; }

    /** Values, one row per token. */
    const Matrix &values() const { return values_; }

    /** Latent topic of each token (exposed for tests/analysis). */
    const std::vector<uint32_t> &topics() const { return topics_; }

    /** Segment (contiguous topic run) of each token. */
    const std::vector<uint32_t> &segments() const { return segments_; }

    /**
     * Draw a post-RoPE query for the current decode position
     * (contextLength()). With probability queryLocalProb it targets
     * the most recent segment, otherwise a uniformly random past
     * segment (long-range retrieval).
     */
    std::vector<float> drawQuery();

    /** Draw a query targeting a specific segment (for tests). */
    std::vector<float> drawQueryForSegment(uint32_t segment);

    /** Draw a query aligned only with a topic center (for tests). */
    std::vector<float> drawQueryForTopic(uint32_t topic);

    /** 1/sqrt(headDim) softmax scale. */
    float attentionScale() const;

  private:
    /** Shared body of key/query sampling. */
    std::vector<float> sampleVector(uint32_t topic, int segment,
                                    double noise_scale);

    void startContext();
    /** Sample token `pos` (the next row) and append it to the context. */
    void pushToken(size_t pos);
    void advanceTopic();
    const std::vector<float> &segmentIdentity(uint32_t segment);

    WorkloadConfig cfg_;
    Rng rng_;
    Rng identityRng_; //!< dedicated stream for segment identities
    Rope rope_;
    Matrix clusterCenters_;       //!< numClusters x headDim
    std::vector<float> mean_;     //!< global offset
    std::vector<float> spectrum_; //!< per-dimension scales (pair-tied)
    std::vector<std::vector<float>> segmentIds_;
    Matrix keys_;
    Matrix values_;
    std::vector<uint32_t> topics_;
    std::vector<uint32_t> segments_;
    uint32_t currentTopic_ = 0;
    uint32_t currentSegment_ = 0;
};

/**
 * A bundle of independent HeadWorkloads for all KV heads of a model
 * shape, deterministically derived from one seed.
 */
std::vector<HeadWorkload> makeHeadWorkloads(const WorkloadConfig &cfg,
                                            uint32_t num_heads,
                                            uint64_t seed);

} // namespace longsight

#endif // LONGSIGHT_MODEL_WORKLOAD_HH
