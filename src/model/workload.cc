#include "model/workload.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace longsight {

WorkloadConfig
WorkloadConfig::pgLike(uint32_t head_dim)
{
    WorkloadConfig cfg;
    cfg.headDim = head_dim;
    cfg.numClusters = 8;       // a book has few running themes
    cfg.stickiness = 0.995;    // chapter-length segments
    cfg.queryLocalProb = 0.55; // plots call back to earlier chapters
    return cfg;
}

WorkloadConfig
WorkloadConfig::wiki2Like(uint32_t head_dim)
{
    WorkloadConfig cfg;
    cfg.headDim = head_dim;
    cfg.numClusters = 24;      // many unrelated articles
    cfg.stickiness = 0.96;     // short passages
    cfg.queryLocalProb = 0.8;  // concatenation rarely links back
    return cfg;
}

HeadWorkload::HeadWorkload(const WorkloadConfig &cfg, Rng rng)
    : cfg_(cfg), rng_(rng), identityRng_(rng_.fork()),
      rope_(cfg.headDim, cfg.ropeTheta), keys_(0, cfg.headDim),
      values_(0, cfg.headDim)
{
    const uint32_t d = cfg_.headDim;
    const uint32_t half = d / 2;

    // Attention score gaps scale as (cluster x segment energy)/sqrt(d)
    // while the spectrum's total energy is dimension-independent, so
    // compensate the structure scales to keep softmax concentration
    // comparable across head dimensions (64 vs 128).
    const double dim_comp = std::pow(d / 64.0, 0.25);
    cfg_.clusterScale *= dim_comp;
    cfg_.segmentScale *= dim_comp;

    // Frequency-ordered magnitude spectrum. RoPE's half-split pairs
    // dimension i with i + d/2, both rotating at invFreq_i which
    // *decays* with i. Content energy goes to the slow (high-i) pairs
    // so semantic matching survives long-range rotation — the
    // frequency allocation RoPE-trained transformers exhibit.
    spectrum_.resize(d);
    for (uint32_t i = 0; i < half; ++i) {
        const double s = std::max(
            std::pow(cfg_.spectrumDecay, static_cast<double>(half - 1 - i)),
            cfg_.spectrumFloor);
        spectrum_[i] = static_cast<float>(s);
        spectrum_[i + half] = static_cast<float>(s);
    }

    // Global mean offset, shaped by the spectrum — real LLM keys are
    // not centered at the origin, which skews raw sign statistics.
    mean_.resize(d);
    for (uint32_t i = 0; i < d; ++i)
        mean_[i] = static_cast<float>(cfg_.meanScale * rng_.gaussian()) *
            spectrum_[i];

    // Topic centers, also shaped by the spectrum.
    clusterCenters_.resize(cfg_.numClusters, d);
    for (uint32_t c = 0; c < cfg_.numClusters; ++c)
        for (uint32_t i = 0; i < d; ++i)
            clusterCenters_(c, i) =
                static_cast<float>(cfg_.clusterScale * rng_.gaussian()) *
                spectrum_[i];

    startContext();
}

void
HeadWorkload::startContext()
{
    currentTopic_ = static_cast<uint32_t>(rng_.below(cfg_.numClusters));
    currentSegment_ = 0;
    segmentIds_.clear();
    topics_.clear();
    segments_.clear();
}

const std::vector<float> &
HeadWorkload::segmentIdentity(uint32_t segment)
{
    while (segmentIds_.size() <= segment) {
        // LS_LINT_ALLOW(alloc): lazy cache, grows once per new segment
        std::vector<float> id(cfg_.headDim);
        for (uint32_t i = 0; i < cfg_.headDim; ++i)
            id[i] = static_cast<float>(cfg_.segmentScale *
                                       identityRng_.gaussian()) *
                spectrum_[i];
        // LS_LINT_ALLOW(alloc): lazy cache, grows once per new segment
        segmentIds_.push_back(std::move(id));
    }
    return segmentIds_[segment];
}

std::vector<float>
HeadWorkload::sampleVector(uint32_t topic, int segment, double noise_scale)
{
    const uint32_t d = cfg_.headDim;
    // Synthetic token generation stands in for the model's QKV
    // projections, which a real serving stack computes elsewhere.
    // LS_LINT_ALLOW(alloc): generator scratch, not a serving path
    std::vector<float> v(d);
    const std::vector<float> *seg_id =
        segment >= 0 ? &segmentIdentity(static_cast<uint32_t>(segment))
                     : nullptr;
    for (uint32_t i = 0; i < d; ++i) {
        const float noise =
            static_cast<float>(noise_scale * rng_.gaussian()) * spectrum_[i];
        v[i] = mean_[i] + clusterCenters_(topic, i) + noise;
        if (seg_id)
            v[i] += (*seg_id)[i];
    }
    return v;
}

void
HeadWorkload::advanceTopic()
{
    if (rng_.uniform() >= cfg_.stickiness) {
        currentTopic_ = static_cast<uint32_t>(rng_.below(cfg_.numClusters));
        ++currentSegment_;
    }
}

void
HeadWorkload::pushToken(size_t pos)
{
    std::vector<float> k = sampleVector(
        currentTopic_, static_cast<int>(currentSegment_), cfg_.noiseScale);
    if (cfg_.applyRope)
        rope_.apply(k.data(), pos);

    // Values carry no planted structure; attention output fidelity is
    // measured against the exact dense result, so any distribution
    // works.
    const std::vector<float> v = rng_.gaussianVec(cfg_.headDim);

    keys_.appendRow(k.data());
    values_.appendRow(v.data());
    // LS_LINT_ALLOW(alloc): context history is the workload's product
    topics_.push_back(currentTopic_);
    // LS_LINT_ALLOW(alloc): context history is the workload's product
    segments_.push_back(currentSegment_);
}

void
HeadWorkload::generate(size_t n)
{
    startContext();
    keys_.resize(0, cfg_.headDim);
    values_.resize(0, cfg_.headDim);
    keys_.reserveRows(n);
    values_.reserveRows(n);
    topics_.reserve(n);
    segments_.reserve(n);
    for (size_t t = 0; t < n; ++t) {
        if (t > 0)
            advanceTopic();
        pushToken(t);
    }
}

void
HeadWorkload::appendToken()
{
    // Rows grow in place (amortized), so a decode-time append costs one
    // row, not a copy of the whole history.
    const size_t pos = keys_.rows();
    if (pos > 0)
        advanceTopic();
    pushToken(pos);
}

std::vector<float>
HeadWorkload::drawQuery()
{
    LS_ASSERT(!segments_.empty(), "drawQuery on an empty context");
    uint32_t segment;
    if (rng_.uniform() < cfg_.queryLocalProb) {
        segment = segments_.back();
    } else {
        // Revisit the segment of a uniformly random past token, so the
        // long-range target density matches the context composition.
        segment = segments_[rng_.below(segments_.size())];
    }
    return drawQueryForSegment(segment);
}

std::vector<float>
HeadWorkload::drawQueryForSegment(uint32_t segment)
{
    LS_ASSERT(segment <= currentSegment_, "segment ", segment,
              " not generated yet");
    // The segment's topic: find any token of that segment.
    uint32_t topic = currentTopic_;
    for (size_t i = segments_.size(); i-- > 0;) {
        if (segments_[i] == segment) {
            topic = topics_[i];
            break;
        }
    }
    std::vector<float> q = sampleVector(topic, static_cast<int>(segment),
                                        cfg_.queryNoiseScale);
    if (cfg_.applyRope)
        rope_.apply(q.data(), contextLength());
    return q;
}

std::vector<float>
HeadWorkload::drawQueryForTopic(uint32_t topic)
{
    LS_ASSERT(topic < cfg_.numClusters, "topic ", topic, " out of range");
    std::vector<float> q = sampleVector(topic, -1, cfg_.queryNoiseScale);
    if (cfg_.applyRope)
        rope_.apply(q.data(), contextLength());
    return q;
}

float
HeadWorkload::attentionScale() const
{
    return 1.0f / std::sqrt(static_cast<float>(cfg_.headDim));
}

std::vector<HeadWorkload>
makeHeadWorkloads(const WorkloadConfig &cfg, uint32_t num_heads,
                  uint64_t seed)
{
    Rng root(seed);
    std::vector<HeadWorkload> heads;
    heads.reserve(num_heads);
    for (uint32_t h = 0; h < num_heads; ++h)
        heads.emplace_back(cfg, root.fork());
    return heads;
}

} // namespace longsight
