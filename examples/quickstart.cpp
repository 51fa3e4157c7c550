/**
 * @file
 * Quickstart: the LongSight hybrid attention API in ~60 lines.
 *
 * Builds a synthetic 8K-token context for one KV head, trains an ITQ
 * rotation, runs hybrid dense-sparse attention at several thresholds,
 * and compares against exact dense attention: retained softmax mass,
 * output error, and the Fig.-3 filter ratio.
 *
 * Run:  ./build/examples/quickstart
 */

#include <cmath>
#include <iostream>

#include "core/attention.hh"
#include "core/hybrid_attention.hh"
#include "core/itq.hh"
#include "core/kv_cache.hh"
#include "model/workload.hh"
#include "util/table.hh"

int
main()
{
    using namespace longsight;
    constexpr uint32_t kDim = 64;
    constexpr size_t kContext = 8192;

    // 1. A synthetic context with LLM-like key statistics.
    WorkloadConfig wcfg;
    wcfg.headDim = kDim;
    HeadWorkload workload(wcfg, Rng(7));
    workload.generate(kContext);

    // 2. Load it into a KV cache and install an ITQ rotation trained
    //    on ~1K post-RoPE keys and queries (§5.4).
    KvCache cache(kDim);
    cache.appendAll(workload.keys(), workload.values());
    Matrix train(1024, kDim);
    for (size_t i = 0; i < 896; ++i)
        train.setRow(i, cache.keysStorage().row(i * kContext / 896));
    for (size_t i = 0; i < 128; ++i) {
        const auto q = workload.drawQuery();
        train.setRow(896 + i, q.data());
    }
    Rng itq_rng(42);
    cache.setItqRotation(trainItqRotation(train, 20, itq_rng));

    // 3. Hybrid attention: 1024-token window, 16 sinks, top-256.
    LongSightConfig cfg;
    cfg.windowSize = 1024;
    cfg.sinkTokens = 16;
    cfg.topK = 256;
    LongSightAttn attn(cfg, /*num_kv_heads=*/1);

    TextTable t("LongSight quickstart: hybrid vs dense attention (" +
                std::to_string(kContext) + " tokens)");
    t.setHeader({"SCF threshold", "FilterRatio", "RetainedMass",
                 "OutputErr", "KeysScored"});
    const float scale = workload.attentionScale();
    for (int th : {0, 32, 40, 44}) {
        attn.setThreshold(0, th);
        FilterStats fs;
        double retained = 0.0, err = 0.0;
        const int trials = 8;
        // Re-draw the same query stream per threshold for fairness.
        HeadWorkload probe(wcfg, Rng(7));
        probe.generate(kContext);
        for (int i = 0; i < trials; ++i) {
            const auto q = probe.drawQuery();
            const auto hybrid = attn.computeHead(q, cache, 0);
            LongSightAttn::recordStats(hybrid, fs);
            const auto dense = denseAttention(q.data(), cache.keysStorage(),
                                              cache.valuesStorage(), scale);
            double mass = 0.0;
            for (uint32_t idx : hybrid.attended)
                mass += dense.probs[idx];
            retained += mass;
            double e2 = 0.0, ref = 0.0;
            for (size_t d = 0; d < kDim; ++d) {
                const double diff = hybrid.output[d] - dense.output[d];
                e2 += diff * diff;
                ref += dense.output[d] * dense.output[d];
            }
            err += std::sqrt(e2 / ref);
        }
        t.addRow({std::to_string(th),
                  TextTable::num(fs.filterRatio(), 1) + "x",
                  TextTable::num(retained / trials, 4),
                  TextTable::num(err / trials, 4),
                  std::to_string(fs.survivorKeys / trials)});
    }
    t.print(std::cout);
    std::cout << "Higher thresholds filter more keys (higher ratio) while\n"
                 "the ITQ-rotated sign bits keep the retained softmax mass\n"
                 "near 1.0 — the core LongSight trade-off.\n";
    return 0;
}
