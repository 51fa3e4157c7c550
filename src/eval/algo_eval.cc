#include "eval/algo_eval.hh"

#include <algorithm>
#include <cmath>

#include "core/attention.hh"
#include "core/itq.hh"
#include "core/topk.hh"
#include "tensor/kernels.hh"
#include "tensor/quantized.hh"
#include "tensor/linalg.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/signbits.hh"
#include "tensor/softmax.hh"
#include "util/logging.hh"

namespace longsight {

AlgoEvaluator::AlgoEvaluator(const WorkloadConfig &cfg, uint32_t num_heads,
                             size_t context, uint32_t queries_per_head,
                             uint64_t seed, int itq_iterations)
    : numHeads_(num_heads), headDim_(cfg.headDim), context_(context)
{
    LS_ASSERT(context > 0 && num_heads > 0 && queries_per_head > 0,
              "degenerate evaluator shape");
    auto heads = makeHeadWorkloads(cfg, num_heads, seed);
    Rng itq_rng(seed ^ 0x17ab'99d1ULL);

    samples_.resize(num_heads);
    for (uint32_t h = 0; h < num_heads; ++h) {
        HeadWorkload &wl = heads[h];
        wl.generate(context);
        const Matrix &keys = wl.keys();
        const float scale = wl.attentionScale();

        // Per-key sign bits in raw and (optionally) ITQ space, packed
        // contiguously for the batch concordance sweep.
        const SignMatrix raw_signs =
            SignMatrix::pack(keys.data(), context, headDim_);
        Matrix rotation;
        SignMatrix itq_signs(headDim_);
        if (itq_iterations > 0) {
            // §5.4: train on ~1K post-RoPE keys and queries, sampled
            // uniformly over the context.
            const size_t nk = std::min<size_t>(context, 896);
            const size_t nq = 128;
            Matrix train(nk + nq, headDim_);
            for (size_t i = 0; i < nk; ++i)
                train.setRow(i, keys.row(i * context / nk));
            for (size_t i = 0; i < nq; ++i) {
                const auto q = wl.drawQuery();
                train.setRow(nk + i, q.data());
            }
            rotation = trainItqRotation(train, itq_iterations, itq_rng);
            itq_signs.reserveRows(context);
            for (size_t i = 0; i < context; ++i) {
                const auto rk = gemvT(rotation, keys.rowVec(i));
                itq_signs.appendRow(rk.data());
            }
        }

        // INT8 key arena (symmetric per-row quantization — the same
        // scheme as KvCache::enableKeyQuantization) and fixed-block
        // mean-key centroids, for the estimation-family filters.
        std::vector<int8_t> kq(context * headDim_);
        std::vector<float> kscale(context);
        for (size_t i = 0; i < context; ++i)
            quantizeInt8Into(keys.row(i), headDim_,
                             kq.data() + i * headDim_, &kscale[i]);
        const size_t bt = kCentroidBlockTokens;
        const size_t nblocks = (context + bt - 1) / bt;
        Matrix centroids(nblocks, headDim_);
        for (size_t b = 0; b < nblocks; ++b) {
            const size_t t0 = b * bt;
            const size_t t1 = std::min(context, t0 + bt);
            std::vector<double> acc(headDim_, 0.0);
            for (size_t t = t0; t < t1; ++t)
                for (size_t d = 0; d < headDim_; ++d)
                    acc[d] += static_cast<double>(keys.row(t)[d]);
            std::vector<float> c(headDim_);
            for (size_t d = 0; d < headDim_; ++d)
                c[d] = static_cast<float>(
                    acc[d] / static_cast<double>(t1 - t0));
            centroids.setRow(b, c.data());
        }

        samples_[h].resize(queries_per_head);
        for (uint32_t qi = 0; qi < queries_per_head; ++qi) {
            Sample &s = samples_[h][qi];
            const auto q = wl.drawQuery();
            s.scores = attentionScores(q.data(), keys, 0, context, scale);
            s.probs = s.scores;
            softmaxInPlace(s.probs);
            s.probOrder.resize(context);
            for (size_t i = 0; i < context; ++i)
                s.probOrder[i] = static_cast<uint32_t>(i);
            std::sort(s.probOrder.begin(), s.probOrder.end(),
                      [&s](uint32_t a, uint32_t b) {
                          return s.probs[a] > s.probs[b] ||
                              (s.probs[a] == s.probs[b] && a < b);
                      });

            const SignBits q_raw(q.data(), headDim_);
            s.concordRaw.resize(context);
            batchConcordance(q_raw.words().data(), raw_signs, 0, context,
                             s.concordRaw.data());

            if (itq_iterations > 0) {
                const auto qr = gemvT(rotation, q);
                const SignBits q_itq(qr.data(), headDim_);
                s.concordItq.resize(context);
                batchConcordance(q_itq.words().data(), itq_signs, 0,
                                 context, s.concordItq.data());
            }

            // INT8 score estimates: exact integer dot through the
            // dispatch layer, float estimate under the shared
            // batchInt8ScoreSelectMultiSpans contract (one fixed
            // multiply order), scaled like s.scores so the two are
            // comparable.
            std::vector<int8_t> q8(headDim_);
            float q_scale = 0.0f;
            quantizeInt8Into(q.data(), headDim_, q8.data(), &q_scale);
            std::vector<int32_t> idot(context);
            batchInt8DotRange(q8.data(), kq.data(), headDim_, 0, context,
                              idot.data());
            s.estInt8.resize(context);
            const float qp = q_scale * scale;
            for (size_t i = 0; i < context; ++i)
                s.estInt8[i] = static_cast<float>(idot[i]) *
                    (qp * kscale[i]);

            s.blockScore.resize(nblocks);
            for (size_t b = 0; b < nblocks; ++b) {
                double acc = 0.0;
                const float *c = centroids.row(b);
                for (size_t d = 0; d < headDim_; ++d)
                    acc += static_cast<double>(q[d]) *
                        static_cast<double>(c[d]);
                s.blockScore[b] = static_cast<float>(acc) * scale;
            }
        }
    }
}

EvalResult
AlgoEvaluator::evaluate(const EvalConfig &cfg) const
{
    EvalResult out;
    out.headFilterRatios.resize(numHeads_);

    double lost_total = 0.0;
    double recall_total = 0.0;
    size_t evals = 0;
    size_t recall_evals = 0;

    // Reused drain span: drainSorted heapsorts into this in place, so
    // after the first sample at each size no allocation happens here.
    std::vector<ScoredIndex> selected;

    for (uint32_t h = 0; h < numHeads_; ++h) {
        FilterStats head_stats;
        const int threshold =
            cfg.thresholds.empty() ? 0 : cfg.thresholds[h];
        for (const Sample &s : samples_[h]) {
            const size_t n = s.probs.size();
            const size_t sinks = std::min<size_t>(cfg.sinkTokens, n);
            size_t win_start =
                n > cfg.windowSize ? n - cfg.windowSize : 0;
            win_start = std::max(win_start, sinks);

            double retained = 0.0;
            for (size_t i = 0; i < sinks; ++i)
                retained += s.probs[i];
            for (size_t i = win_start; i < n; ++i)
                retained += s.probs[i];

            const size_t region = win_start - sinks;
            if (region > 0) {
                TopK ranker(cfg.topK);
                uint64_t survivors = 0;
                if (cfg.filter == FilterKind::Int8) {
                    // Estimation replaces the survivor scan: every
                    // region token is ranked by its INT8 estimate, and
                    // only the selections are retrieved at full
                    // precision — survivors therefore equals the
                    // selection count (set after the drain).
                    for (size_t i = sinks; i < win_start; ++i)
                        ranker.push(s.estInt8[i],
                                    static_cast<uint32_t>(i));
                } else if (cfg.filter == FilterKind::Centroid) {
                    // Rank the fixed 128-token blocks overlapping the
                    // region, descend into the best keepFraction, and
                    // exact-score the candidates inside them.
                    const size_t bt = kCentroidBlockTokens;
                    const size_t b0 = sinks / bt;
                    const size_t b1 = (win_start + bt - 1) / bt;
                    const size_t nb = b1 - b0;
                    const size_t keep = std::min(
                        nb, std::max<size_t>(
                                1, static_cast<size_t>(std::ceil(
                                       cfg.centroidKeepFraction *
                                       static_cast<double>(nb)))));
                    std::vector<ScoredIndex> bh(keep);
                    size_t hs = 0;
                    for (size_t b = b0; b < b1; ++b)
                        hs = topk_heap::push(
                            bh.data(), hs, keep,
                            ScoredIndex{s.blockScore[b],
                                        static_cast<uint32_t>(b)});
                    for (size_t j = 0; j < hs; ++j) {
                        const size_t b = bh[j].index;
                        const size_t t0 = std::max(sinks, b * bt);
                        const size_t t1 =
                            std::min(win_start, (b + 1) * bt);
                        for (size_t t = t0; t < t1; ++t) {
                            ++survivors;
                            ranker.push(s.scores[t],
                                        static_cast<uint32_t>(t));
                        }
                    }
                } else {
                    const auto &concord =
                        cfg.useItq && !s.concordItq.empty()
                        ? s.concordItq
                        : s.concordRaw;
                    // Survivors + bounded top-k in one pass.
                    for (size_t i = sinks; i < win_start; ++i) {
                        if (concord[i] >= threshold) {
                            ++survivors;
                            ranker.push(s.scores[i],
                                        static_cast<uint32_t>(i));
                        }
                    }
                }
                // Drain in place: heapsort into the reused span
                // instead of sortedResults' copy + full sort.
                selected.resize(ranker.size());
                const size_t nsel = ranker.drainSorted(selected.data());
                if (cfg.filter == FilterKind::Int8)
                    survivors = nsel;
                std::vector<uint32_t> picked;
                picked.reserve(nsel);
                for (size_t i = 0; i < nsel; ++i) {
                    retained += s.probs[selected[i].index];
                    picked.push_back(selected[i].index);
                }
                head_stats.record(region, survivors, nsel);

                // Recall: compare against the region's true top
                // |selected| tokens by dense probability.
                if (!picked.empty()) {
                    std::sort(picked.begin(), picked.end());
                    size_t truth_seen = 0, hits = 0;
                    for (uint32_t idx : s.probOrder) {
                        if (idx < sinks || idx >= win_start)
                            continue;
                        ++truth_seen;
                        hits += std::binary_search(picked.begin(),
                                                   picked.end(), idx);
                        if (truth_seen == picked.size())
                            break;
                    }
                    recall_total +=
                        static_cast<double>(hits) / picked.size();
                    ++recall_evals;
                }
            }
            lost_total += std::max(0.0, 1.0 - retained);
            ++evals;
        }
        out.headFilterRatios[h] = head_stats.filterRatio();
        out.stats.merge(head_stats);
    }

    out.lostMass = lost_total / static_cast<double>(evals);
    out.pplIncreasePct = 100.0 * (std::exp(out.lostMass) - 1.0);
    out.filterRatio = out.stats.filterRatio();
    out.sparsity = out.stats.sparsity();
    if (recall_evals > 0)
        out.recallAtK = recall_total / static_cast<double>(recall_evals);
    return out;
}

double
AlgoEvaluator::slidingWindowLostMass(uint32_t window, uint32_t sinks) const
{
    double lost = 0.0;
    size_t evals = 0;
    for (const auto &head : samples_) {
        for (const Sample &s : head) {
            const size_t n = s.probs.size();
            const size_t sink_n = std::min<size_t>(sinks, n);
            size_t win_start = n > window ? n - window : 0;
            win_start = std::max(win_start, sink_n);
            double retained = 0.0;
            for (size_t i = 0; i < sink_n; ++i)
                retained += s.probs[i];
            for (size_t i = win_start; i < n; ++i)
                retained += s.probs[i];
            lost += std::max(0.0, 1.0 - retained);
            ++evals;
        }
    }
    return lost / static_cast<double>(evals);
}

} // namespace longsight
