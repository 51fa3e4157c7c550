/**
 * @file
 * Unified filter-family Pareto harness — the merge of the old
 * fig4_pareto bench and the eval/sparse_baselines comparison into one
 * sweep. Every candidate-filter family AlgoEvaluator models is
 * evaluated on the same 8B-shape 32K corpus and placed on two charts:
 *
 *   1. accuracy vs simulated decode throughput (a deterministic,
 *      count-domain bandwidth model — no wall clock), and
 *   2. accuracy vs retrieved tokens per step (full-precision key
 *      reads: SCF survivors, INT8 selections, centroid candidates) —
 *      the quality-per-retrieved-token frontier the paper's §5.4
 *      DynaX comparison lives on.
 *
 * Swept backends: SCF (W x k x threshold, ITQ signs — the paper's
 * Figure 4 sweep, reproduced verbatim including the three example
 * tables and the DynaX row), INT8 quantized-score estimation (W x k),
 * centroid block scoring (W x k x keep fraction), plus the §3.1/§4
 * ANNS software baselines (k-means probes, LSH) as reference points.
 *
 * Writes BENCH_pareto.json; ci/bench_gate.py checks its count and
 * frontier-identity fields (never wall clock) against
 * bench/baselines/.
 *
 * Run:  ./build/bench/pareto_harness --out BENCH_pareto.json
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/attention.hh"
#include "core/topk.hh"
#include "eval/sparse_baselines.hh"
#include "model/model_config.hh"
#include "model/perplexity.hh"
#include "model/workload.hh"
#include "tensor/softmax.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace longsight {
namespace {

struct Point
{
    std::string backend; //!< scf | int8 | centroid | kmeans | lsh
    uint32_t window;
    uint32_t k;
    int threshold;       //!< scf only; -1 elsewhere
    double keepFraction; //!< centroid/anns probe fraction; 0 elsewhere
    double accuracy;     //!< relative to dense = 1 / (1 + dPPL)
    double pplPct;
    double filterRatio;
    double sparsity;
    double recall;
    double retrievedPerStep; //!< full-precision key reads / (query, head)
    double simTokensPerS;
};

double
accuracyOf(double ppl_pct)
{
    return 1.0 / (1.0 + ppl_pct / 100.0);
}

/**
 * Deterministic decode-throughput model, count domain only: bytes
 * moved per (query, KV head) step at dim d —
 *
 *   scf:      region * d/8 (sign plane) + retrieved * 2d (BF16 keys
 *             scored) + selected * 2d (values)
 *   int8:     region * d (INT8 estimate scan) + selected * 2d (keys
 *             re-read full precision for the combined softmax)
 *             + selected * 2d (values)
 *   centroid: blocks * 2d (centroid reads) + retrieved * 2d
 *             (candidate keys) + selected * 2d (values)
 *   anns:     index * 2d (probe reads) + retrieved * 2d + selected*2d
 *
 * divided into a fixed expander bandwidth across the model's
 * layers x KV-head databases. Constants are arbitrary but fixed, so
 * the OUTPUT is a deterministic function of the sweep counts — the CI
 * gate can hold frontier shape without touching wall clock.
 */
double
simTokensPerSecond(const std::string &backend, double region,
                   double retrieved, double selected, double index_rows,
                   uint32_t dim)
{
    constexpr double kExpanderBytesPerS = 64.0e9;
    const double d = static_cast<double>(dim);
    const double bf16 = 2.0 * d;
    double bytes = selected * bf16; // value fetch, every backend
    if (backend == "scf")
        bytes += region * d / 8.0 + retrieved * bf16;
    else if (backend == "int8")
        bytes += region * d + selected * bf16;
    else
        bytes += index_rows * bf16 + retrieved * bf16;
    const auto model = ModelConfig::llama3_8b();
    const double databases = model.kvDatabasesPerUser();
    return kExpanderBytesPerS / (bytes * databases);
}

Point
pointOf(const std::string &backend, const EvalConfig &cfg,
        const EvalResult &r, double index_rows, uint32_t dim)
{
    Point p;
    p.backend = backend;
    p.window = cfg.windowSize;
    p.k = cfg.topK;
    p.threshold = backend == "scf" && !cfg.thresholds.empty()
        ? cfg.thresholds[0]
        : -1;
    p.keepFraction =
        backend == "centroid" ? cfg.centroidKeepFraction : 0.0;
    p.accuracy = accuracyOf(r.pplIncreasePct);
    p.pplPct = r.pplIncreasePct;
    p.filterRatio = r.filterRatio;
    p.sparsity = r.sparsity;
    p.recall = r.recallAtK;
    const double evals =
        std::max<double>(1, r.stats.evaluations);
    const double region = static_cast<double>(r.stats.rawKeys) / evals;
    p.retrievedPerStep =
        static_cast<double>(r.stats.survivorKeys) / evals;
    const double selected =
        static_cast<double>(r.stats.selectedKeys) / evals;
    p.simTokensPerS = simTokensPerSecond(backend, region,
                                         p.retrievedPerStep, selected,
                                         index_rows, dim);
    return p;
}

/** Keep only Pareto-optimal points under (cost asc, accuracy desc). */
template <class CostFn>
std::vector<Point>
paretoFrontier(std::vector<Point> pts, CostFn cost)
{
    std::sort(pts.begin(), pts.end(),
              [&](const Point &a, const Point &b) {
                  return cost(a) < cost(b);
              });
    std::vector<Point> front;
    double best_acc = -1.0;
    for (const Point &p : pts) {
        if (p.accuracy > best_acc) {
            best_acc = p.accuracy;
            front.push_back(p);
        }
    }
    return front;
}

/** True when some `challenger` point strictly dominates some point on
 *  `incumbent_frontier`: cost <= and accuracy >=, one strict. */
template <class CostFn>
bool
beatsFrontier(const std::vector<Point> &challengers,
              const std::vector<Point> &incumbent_frontier, CostFn cost)
{
    for (const Point &c : challengers)
        for (const Point &f : incumbent_frontier)
            if (cost(c) <= cost(f) && c.accuracy >= f.accuracy &&
                (cost(c) < cost(f) || c.accuracy > f.accuracy))
                return true;
    return false;
}

/** True when some challenger is NOT dominated by any incumbent point
 *  (it sits on or above the incumbent frontier). */
template <class CostFn>
bool
onOrAboveFrontier(const std::vector<Point> &challengers,
                  const std::vector<Point> &incumbents, CostFn cost)
{
    for (const Point &c : challengers) {
        bool dominated = false;
        for (const Point &q : incumbents)
            if (cost(q) <= cost(c) && q.accuracy >= c.accuracy &&
                (cost(q) < cost(c) || q.accuracy > c.accuracy)) {
                dominated = true;
                break;
            }
        if (!dominated)
            return true;
    }
    return false;
}

std::vector<const Point *>
ofBackend(const std::vector<Point> &all, const std::string &backend)
{
    std::vector<const Point *> out;
    for (const Point &p : all)
        if (p.backend == backend)
            out.push_back(&p);
    return out;
}

std::vector<Point>
deref(const std::vector<const Point *> &ps)
{
    std::vector<Point> out;
    for (const Point *p : ps)
        out.push_back(*p);
    return out;
}

/**
 * ANNS reference points (the old eval/sparse_baselines comparison):
 * k-means probes and LSH candidate generation on one head's keys,
 * scored with the same retained-mass -> ppl -> accuracy pipeline as
 * the evaluator corpus.
 */
void
annsPoints(uint32_t dim, size_t context, std::vector<Point> &out)
{
    WorkloadConfig wcfg;
    wcfg.headDim = dim;
    HeadWorkload wl(wcfg, Rng(0xA115'0001ULL));
    wl.generate(context);
    const Matrix &keys = wl.keys();
    const float scale = wl.attentionScale();

    Rng rng(0xA115'0002ULL);
    const uint32_t clusters = 128;
    KMeansIndex kmeans(keys, clusters, 4, rng);
    const uint32_t tables = 6, bits = 10;
    LshIndex lsh(keys, tables, bits, rng);

    const uint32_t window = 1024, k = 1024, sinks = 16;
    const size_t win_start = context - window;
    const size_t region = win_start - sinks;
    const int trials = 8;

    struct Acc
    {
        std::string backend;
        double keep;   // probes / clusters for kmeans, 0 for lsh
        double lost = 0.0, retrieved = 0.0, selected = 0.0;
        double indexRows;
    };
    std::vector<Acc> accs = {{"kmeans", 4.0 / clusters, 0, 0, 0,
                              static_cast<double>(clusters)},
                             {"kmeans", 8.0 / clusters, 0, 0, 0,
                              static_cast<double>(clusters)},
                             {"kmeans", 16.0 / clusters, 0, 0, 0,
                              static_cast<double>(clusters)},
                             {"lsh", 0.0, 0, 0, 0,
                              static_cast<double>(tables)}};

    for (int t = 0; t < trials; ++t) {
        const auto q = wl.drawQuery();
        auto probs = attentionScores(q.data(), keys, 0, context, scale);
        softmaxInPlace(probs);
        double dense_part = 0.0;
        for (size_t i = 0; i < sinks; ++i)
            dense_part += probs[i];
        for (size_t i = win_start; i < context; ++i)
            dense_part += probs[i];

        for (Acc &a : accs) {
            const auto cand = a.backend == "kmeans"
                ? kmeans.candidates(
                      q.data(),
                      static_cast<uint32_t>(a.keep * clusters + 0.5))
                : lsh.candidates(q.data());
            // Exact-score the in-region candidates, keep top k.
            std::vector<uint32_t> cidx;
            std::vector<float> cscores;
            for (uint32_t idx : cand) {
                if (idx < sinks || idx >= win_start)
                    continue;
                cidx.push_back(idx);
                cscores.push_back(attentionScores(q.data(), keys, idx,
                                                  idx + 1, scale)[0]);
            }
            const auto sel = topkSelect(cscores, cidx, k);
            double retained = dense_part;
            for (const ScoredIndex &si : sel)
                retained += probs[si.index];
            a.lost += std::max(0.0, 1.0 - retained);
            a.retrieved += static_cast<double>(cidx.size());
            a.selected += static_cast<double>(sel.size());
        }
    }

    for (const Acc &a : accs) {
        const double lost = a.lost / trials;
        const double ppl = pplIncreasePct(lost);
        Point p;
        p.backend = a.backend;
        p.window = window;
        p.k = k;
        p.threshold = -1;
        p.keepFraction = a.keep;
        p.accuracy = accuracyOf(ppl);
        p.pplPct = ppl;
        p.retrievedPerStep = a.retrieved / trials;
        const double selected = a.selected / trials;
        p.filterRatio = 2.0 * static_cast<double>(region) /
            std::max(1.0, p.retrievedPerStep + selected);
        p.sparsity = 1.0 - 1.0 / p.filterRatio;
        p.recall = 0.0; // not measured for the reference points
        p.simTokensPerS = simTokensPerSecond(
            a.backend, static_cast<double>(region), p.retrievedPerStep,
            selected, a.indexRows, dim);
        out.push_back(p);
    }
}

} // namespace
} // namespace longsight

int
main(int argc, char **argv)
{
    using namespace longsight;
    Flags flags(argc, argv);
    // The ANNS reference points need a sparse region past their
    // 1024-token window and 16 sinks.
    const size_t context = flags.getCount("context", 32768, 2048);
    const auto heads = static_cast<uint32_t>(
        flags.getCount("heads", 4, 1, UINT32_MAX));
    const auto queries =
        static_cast<uint32_t>(flags.getCount("queries", 16, 1, UINT32_MAX));
    const std::string out_path =
        flags.getString("out", "BENCH_pareto.json");
    flags.rejectUnconsumed();

    const auto model = ModelConfig::llama3_8b();
    std::cout << "Building " << fmtTokens(context)
              << " evaluation corpus (" << model.name
              << " shape, Wiki2-like statistics)...\n";
    const WorkloadConfig wcfg = WorkloadConfig::wiki2Like(model.headDim);
    AlgoEvaluator eval(wcfg, heads, context, queries, 0xF14'0001, 20);
    const uint32_t dim = model.headDim;
    const int d = static_cast<int>(dim);

    const std::vector<uint32_t> windows = {256, 1024, 4096};
    const std::vector<uint32_t> ks = {128, 256, 1024};

    std::vector<Point> all;

    // --- SCF: the paper's Figure 4 sweep (W x k x threshold, ITQ). --
    for (uint32_t w : windows) {
        for (uint32_t k : ks) {
            for (int th = 0; th <= d; th += d / 16) {
                EvalConfig cfg;
                cfg.windowSize = w;
                cfg.sinkTokens = 16;
                cfg.topK = k;
                cfg.useItq = true;
                cfg.thresholds.assign(eval.numHeads(), th);
                const EvalResult r = eval.evaluate(cfg);
                if (r.filterRatio <= 0.0)
                    continue;
                all.push_back(pointOf("scf", cfg, r, 0.0, dim));
            }
        }
    }

    // --- INT8 quantized-score estimation (W x k). -------------------
    for (uint32_t w : windows) {
        for (uint32_t k : ks) {
            EvalConfig cfg;
            cfg.windowSize = w;
            cfg.sinkTokens = 16;
            cfg.topK = k;
            cfg.filter = FilterKind::Int8;
            const EvalResult r = eval.evaluate(cfg);
            if (r.filterRatio <= 0.0)
                continue;
            all.push_back(pointOf("int8", cfg, r, 0.0, dim));
        }
    }

    // --- Centroid block scoring (W x k x keep fraction). ------------
    for (uint32_t w : windows) {
        for (uint32_t k : ks) {
            for (double keep : {0.125, 0.25, 0.5}) {
                EvalConfig cfg;
                cfg.windowSize = w;
                cfg.sinkTokens = 16;
                cfg.topK = k;
                cfg.filter = FilterKind::Centroid;
                cfg.centroidKeepFraction = keep;
                const EvalResult r = eval.evaluate(cfg);
                if (r.filterRatio <= 0.0)
                    continue;
                const double blocks = static_cast<double>(
                    (context + AlgoEvaluator::kCentroidBlockTokens - 1) /
                    AlgoEvaluator::kCentroidBlockTokens);
                all.push_back(pointOf("centroid", cfg, r, blocks, dim));
            }
        }
    }

    // --- ANNS software baselines (§3.1/§4 reference points). --------
    annsPoints(dim, context, all);

    // --- Figure 4 example tables + frontier (SCF, as the paper). ----
    const auto scf_ptr = ofBackend(all, "scf");
    const std::pair<uint32_t, uint32_t> examples[] = {
        {256, 128}, {1024, 1024}, {4096, 256}};
    for (const auto &[w, k] : examples) {
        TextTable t("Figure 4 example config: W=" + std::to_string(w) +
                    ", k=" + std::to_string(k) + " (ITQ), " +
                    fmtTokens(context) + " context");
        t.setHeader({"Threshold", "FilterRatio", "Accuracy(rel.dense)"});
        for (const Point *p : scf_ptr) {
            if (p->window == w && p->k == k)
                t.addRow({std::to_string(p->threshold),
                          TextTable::num(p->filterRatio, 1) + "x",
                          TextTable::num(p->accuracy, 4)});
        }
        t.print(std::cout);
    }

    const auto retrievedOf = [](const Point &p) {
        return p.retrievedPerStep;
    };
    const auto negTokensOf = [](const Point &p) {
        return -p.simTokensPerS;
    };

    // --- Cross-backend frontier on accuracy vs retrieved tokens. ----
    TextTable front("Quality per retrieved token: all-backend Pareto "
                    "frontier (" + fmtTokens(context) + " ctx)");
    front.setHeader({"Backend", "Retrieved/step", "Accuracy", "Tokens/s",
                     "Config"});
    for (const Point &p : paretoFrontier(all, retrievedOf)) {
        std::string cfg = "W=" + std::to_string(p.window) +
            " k=" + std::to_string(p.k);
        if (p.threshold >= 0)
            cfg += " TH=" + std::to_string(p.threshold);
        if (p.keepFraction > 0)
            cfg += " keep=" + TextTable::num(p.keepFraction, 3);
        front.addRow({p.backend, TextTable::num(p.retrievedPerStep, 0),
                      TextTable::num(p.accuracy, 4),
                      TextTable::num(p.simTokensPerS, 1), cfg});
    }
    front.print(std::cout);

    // --- §5.4 DynaX comparison (SCF points, as the paper). ----------
    double best_sparsity = 0.0;
    const Point *best = nullptr;
    for (const Point *p : scf_ptr) {
        if (p->pplPct <= 1.0 && p->sparsity > best_sparsity) {
            best_sparsity = p->sparsity;
            best = p;
        }
    }
    TextTable dynax("Sec. 5.4 comparison vs DynaX (sparsity at +1% ppl)");
    dynax.setHeader({"System", "Sparsity", "FilterRatio", "Config"});
    dynax.addRow({"DynaX (reported)", "91.77%", "12.2x", "-"});
    dynax.addRow({"LongSight (paper)", "91.92%", "12.4x", "-"});
    if (best)
        dynax.addRow({"LongSight (this repro)",
                      TextTable::num(100.0 * best_sparsity, 2) + "%",
                      TextTable::num(best->filterRatio, 1) + "x",
                      "W=" + std::to_string(best->window) +
                          " k=" + std::to_string(best->k) +
                          " TH=" + std::to_string(best->threshold)});
    dynax.print(std::cout);

    // --- Headline booleans: where INT8 estimation lands. ------------
    const auto scf_pts = deref(scf_ptr);
    const auto int8_pts = deref(ofBackend(all, "int8"));
    const auto scf_retr_front = paretoFrontier(scf_pts, retrievedOf);
    const bool int8_beats_retrieved =
        beatsFrontier(int8_pts, scf_retr_front, retrievedOf);
    const bool int8_on_throughput_front =
        onOrAboveFrontier(int8_pts, scf_pts, negTokensOf);
    std::cout << "\nINT8 estimation vs packed-sign SCF:\n"
              << "  strictly dominates a quality-per-retrieved-token "
                 "frontier point: "
              << (int8_beats_retrieved ? "YES" : "NO") << "\n"
              << "  on/above the quality-vs-throughput frontier: "
              << (int8_on_throughput_front ? "YES" : "NO") << "\n";

    // --- BENCH_pareto.json ------------------------------------------
    std::ofstream os(out_path);
    LS_ASSERT(os.good(), "cannot write ", out_path);
    BenchModelShape shape{model.numQueryHeads, model.numKvHeads,
                          model.headDim};
    os << "{\n"
       << benchMeta("pareto_harness", shape) << "  \"context\": "
       << context << ",\n  \"eval_heads\": " << heads
       << ",\n  \"eval_queries_per_head\": " << queries
       << ",\n  \"points\": [\n";
    for (size_t i = 0; i < all.size(); ++i) {
        const Point &p = all[i];
        os << "    {\"backend\": \"" << p.backend << "\", \"window\": "
           << p.window << ", \"k\": " << p.k << ", \"threshold\": "
           << p.threshold << ", \"keep_fraction\": " << p.keepFraction
           << ", \"accuracy\": " << p.accuracy
           << ", \"ppl_increase_pct\": " << p.pplPct
           << ", \"filter_ratio\": " << p.filterRatio
           << ", \"sparsity\": " << p.sparsity << ", \"recall_at_k\": "
           << p.recall << ", \"retrieved_per_step\": "
           << p.retrievedPerStep << ", \"sim_tokens_per_s\": "
           << p.simTokensPerS << "}"
           << (i + 1 < all.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"gate\": {\n"
       << "    \"points_scf\": " << scf_pts.size() << ",\n"
       << "    \"points_int8\": " << int8_pts.size() << ",\n"
       << "    \"points_centroid\": "
       << ofBackend(all, "centroid").size() << ",\n"
       << "    \"points_anns\": "
       << ofBackend(all, "kmeans").size() +
            ofBackend(all, "lsh").size()
       << ",\n"
       << "    \"int8_beats_scf_quality_per_retrieved_token\": "
       << (int8_beats_retrieved ? "true" : "false") << ",\n"
       << "    \"int8_on_or_above_scf_throughput_frontier\": "
       << (int8_on_throughput_front ? "true" : "false") << ",\n"
       << "    \"best_scf_sparsity_at_1pct_ppl\": " << best_sparsity
       << "\n  }\n}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
