/**
 * @file
 * Decode hot-path benchmark: one representative Table-1 8B layer
 * (32 query heads / 8 KV heads, d = 128) decoding at long context.
 * Each step appends one KV pair per head and runs hybrid attention
 * for every query head, two ways:
 *
 *  - *baseline*: the pre-fusion allocating pipeline — SignBits
 *    construction, survivor vector, full score vector, topkSelect,
 *    sort + subsetAttention, all on fresh heap buffers; and
 *  - *fused*: MultiHeadLongSight::computeInto over reserved caches —
 *    scratch-arena buffers and the fused batchScoreSelectMultiSpans
 *    driver, which never materializes survivor or score vectors.
 *
 * Both paths are verified element-identical before timing. With the
 * ls_alloc_hook library linked, the bench also reports heap
 * allocations and bytes per decoded token for each path; the fused
 * steady state is expected to be zero (the allocation-regression test
 * asserts exactly that).
 *
 * A final grouped-scan section isolates the scan stage for one KV
 * head's whole GQA query group at the current cache state: one grouped
 * call of the span drivers (batchScanMultiSpans /
 * batchScoreSelectMultiSpans) against group-size one-query calls, the
 * passes the pre-grouping decode issued.
 * Per-query results must be bit-identical — any mismatch exits
 * nonzero (CI's bench-smoke gate) — and the measured speedups land in
 * BENCH_decode.json under "grouped_scan".
 *
 * Writes BENCH_decode.json.
 *
 * Run:  ./build/bench/decode_hotpath
 *       ./build/bench/decode_hotpath --context 4096 --steps 16 \
 *           --out BENCH_decode.json
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/attention.hh"
#include "core/kv_cache.hh"
#include "core/multi_head.hh"
#include "core/topk.hh"
#include "model/workload.hh"
#include "tensor/kernels.hh"
#include "util/alloc_hook.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace longsight {
namespace {

struct BenchShape
{
    size_t context;
    size_t steps;
    size_t warmup;
    uint32_t qheads;
    uint32_t kvheads;
    uint32_t dim;
    int threshold;
    LongSightConfig hybrid;
};

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One decode step through the pre-fusion allocating pipeline. */
void
baselineStep(const BenchShape &sh, const Matrix &queries,
             const std::vector<KvCache> &caches, Matrix &out)
{
    const uint32_t group = sh.qheads / sh.kvheads;
    const float scale =
        1.0f / std::sqrt(static_cast<float>(sh.dim));
    ThreadPool::global().parallelFor(0, sh.qheads, [&](size_t qh) {
        const KvCache &cache = caches[qh / group];
        const float *q = queries.row(qh);
        const size_t n = cache.size();
        const size_t sinks =
            std::min<size_t>(sh.hybrid.sinkTokens, n);
        size_t win_start =
            n > sh.hybrid.windowSize ? n - sh.hybrid.windowSize : 0;
        win_start = std::max(win_start, sinks);

        std::vector<uint32_t> attended;
        for (size_t i = 0; i < sinks; ++i)
            attended.push_back(static_cast<uint32_t>(i));
        if (win_start > sinks) {
            std::vector<float> qf(sh.dim);
            cache.toFilterSpace(q, qf.data());
            const SignBits qs(qf.data(), sh.dim);
            const ScanSpan region{sinks, win_start - sinks, sinks};
            std::vector<uint32_t> survivors(region.count);
            size_t count = 0;
            batchScanMultiSpans(qs.words().data(), 1,
                                cache.filterSignsAll(), &region, 1,
                                sh.threshold, survivors.data(),
                                survivors.size(), &count);
            survivors.resize(count);
            const auto scores =
                attentionScoresAt(q, cache.keys(), survivors, scale);
            const auto sel =
                topkSelect(scores, survivors, sh.hybrid.topK);
            for (const auto &e : sel)
                attended.push_back(e.index);
        }
        for (size_t i = win_start; i < n; ++i)
            attended.push_back(static_cast<uint32_t>(i));
        std::sort(attended.begin(), attended.end());
        if (attended.empty())
            attended.push_back(static_cast<uint32_t>(n - 1));
        const auto r = subsetAttention(q, cache.keys(),
                                       cache.values(), attended, scale);
        out.setRow(qh, r.output.data());
    });
}

/** What the grouped-scan comparison measured (rates in key-query
 *  tests per second; both paths do group x keys of them). */
struct GroupedScanNumbers
{
    size_t keys = 0;
    double scanGrouped = 0.0;
    double scanUngrouped = 0.0;
    double fusedGrouped = 0.0;
    double fusedUngrouped = 0.0;
    bool bitIdentical = true;
};

/** Best-of-reps rate of fn(), which performs `work` key-query tests;
 *  rep 0 is warmup and the inner loop sizes each timed sample to
 *  enough work for the clock. */
template <class F>
double
bestRate(size_t work, int reps, F &&fn)
{
    const size_t inner = std::max<size_t>(1, (1u << 22) / work);
    double best = 0.0;
    for (int r = 0; r <= reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < inner; ++i)
            fn();
        const double sec = seconds(t0);
        if (r > 0)
            best = std::max(best,
                            static_cast<double>(inner * work) / sec);
    }
    return best;
}

/**
 * Scan-stage comparison on KV head 0's query group: one grouped call
 * over the sparse region versus the `group` one-query calls the
 * ungrouped decode issued, for both the raw concordance scan and the
 * fused scan->score->select driver.
 */
GroupedScanNumbers
groupedScanComparison(const BenchShape &sh, const Matrix &queries,
                      const KvCache &cache, int reps)
{
    GroupedScanNumbers gn;
    const uint32_t group = sh.qheads / sh.kvheads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(sh.dim));
    const size_t n = cache.size();
    const size_t sinks = std::min<size_t>(sh.hybrid.sinkTokens, n);
    size_t win_start =
        n > sh.hybrid.windowSize ? n - sh.hybrid.windowSize : 0;
    win_start = std::max(win_start, sinks);
    if (win_start <= sinks + group)
        return gn; // context too small for a meaningful sparse region
    gn.keys = win_start - sinks;

    const SignMatrix &signs = cache.filterSignsAll();
    const size_t wpr = signs.wordsPerRow();
    const ScanSpan region{sinks, gn.keys, sinks};
    std::vector<float> qf(sh.dim);
    std::vector<uint64_t> qw(group * wpr);
    for (uint32_t g = 0; g < group; ++g) {
        cache.toFilterSpace(queries.row(g), qf.data());
        packSigns(qf.data(), sh.dim, qw.data() + g * wpr);
    }
    const size_t work = static_cast<size_t>(group) * gn.keys;

    // Raw scan: group one-query calls vs one grouped call.
    std::vector<uint32_t> single(work);
    std::vector<size_t> single_counts(group);
    gn.scanUngrouped = bestRate(work, reps, [&] {
        for (uint32_t g = 0; g < group; ++g)
            batchScanMultiSpans(qw.data() + g * wpr, 1, signs, &region, 1,
                                sh.threshold, single.data() + g * gn.keys,
                                gn.keys, &single_counts[g]);
    });
    std::vector<uint32_t> multi(work);
    std::vector<size_t> counts(group);
    gn.scanGrouped = bestRate(work, reps, [&] {
        batchScanMultiSpans(qw.data(), group, signs, &region, 1,
                            sh.threshold, multi.data(), gn.keys,
                            counts.data());
    });
    for (uint32_t g = 0; g < group; ++g) {
        bool same = counts[g] == single_counts[g];
        for (size_t i = 0; same && i < counts[g]; ++i)
            same = multi[g * gn.keys + i] == single[g * gn.keys + i];
        if (!same) {
            std::cerr << "FAIL: grouped scan diverged from the "
                         "one-query scan for group query "
                      << g << "\n";
            gn.bitIdentical = false;
        }
    }

    // Fused scan->score->select: same comparison through the top-k.
    const size_t kcap = std::min<size_t>(sh.hybrid.topK, gn.keys);
    std::vector<ScoredIndex> sel_single(group * kcap);
    std::vector<size_t> nsel_single(group);
    gn.fusedUngrouped = bestRate(work, reps, [&] {
        for (uint32_t g = 0; g < group; ++g)
            batchScoreSelectMultiSpans(
                qw.data() + g * wpr, 1, signs, &region, 1, sh.threshold,
                queries.row(g), queries.cols(), cache.keys(), scale,
                sh.hybrid.topK, sel_single.data() + g * kcap, kcap,
                &nsel_single[g]);
    });
    std::vector<ScoredIndex> sel_multi(group * kcap);
    std::vector<size_t> nsel_multi(group);
    gn.fusedGrouped = bestRate(work, reps, [&] {
        batchScoreSelectMultiSpans(qw.data(), group, signs, &region, 1,
                                   sh.threshold, queries.row(0),
                                   queries.cols(), cache.keys(), scale,
                                   sh.hybrid.topK, sel_multi.data(), kcap,
                                   nsel_multi.data());
    });
    for (uint32_t g = 0; g < group; ++g) {
        bool same = nsel_multi[g] == nsel_single[g];
        for (size_t i = 0; same && i < nsel_multi[g]; ++i)
            same = sel_multi[g * kcap + i].index ==
                    sel_single[g * kcap + i].index &&
                sel_multi[g * kcap + i].score ==
                    sel_single[g * kcap + i].score;
        if (!same) {
            std::cerr << "FAIL: grouped score-select diverged from the "
                         "one-query call for group query "
                      << g << "\n";
            gn.bitIdentical = false;
        }
    }
    return gn;
}

int
run(const BenchShape &sh, const std::string &out_path)
{
    const uint32_t group = sh.qheads / sh.kvheads;
    LS_ASSERT(sh.qheads % sh.kvheads == 0, "GQA shape mismatch");

    // Pregenerate context + every step's token and queries so the
    // timed loops contain only append + attention.
    const size_t verify_steps = 1;
    const size_t total =
        sh.context + verify_steps + 2 * (sh.warmup + sh.steps);
    WorkloadConfig wcfg;
    wcfg.headDim = sh.dim;
    Rng root(7);
    std::vector<HeadWorkload> workloads;
    std::vector<KvCache> caches;
    caches.reserve(sh.kvheads);
    for (uint32_t h = 0; h < sh.kvheads; ++h) {
        workloads.emplace_back(wcfg, root.fork());
        caches.emplace_back(sh.dim);
    }
    std::cout << "generating " << total << " tokens x " << sh.kvheads
              << " KV heads (d=" << sh.dim << ")...\n";
    ThreadPool::global().parallelFor(0, sh.kvheads, [&](size_t h) {
        workloads[h].generate(total);
    });
    for (uint32_t h = 0; h < sh.kvheads; ++h) {
        caches[h].reserve(total);
        for (size_t i = 0; i < sh.context; ++i)
            caches[h].append(workloads[h].keys().row(i),
                             workloads[h].values().row(i));
    }
    const size_t num_steps = verify_steps + 2 * (sh.warmup + sh.steps);
    std::vector<Matrix> step_queries(num_steps);
    for (auto &m : step_queries) {
        m.resize(sh.qheads, sh.dim);
        for (uint32_t qh = 0; qh < sh.qheads; ++qh) {
            const auto q = workloads[qh / group].drawQuery();
            m.setRow(qh, q.data());
        }
    }

    MultiHeadLongSight mh(sh.hybrid, sh.qheads, sh.kvheads, sh.dim);
    for (uint32_t h = 0; h < sh.kvheads; ++h)
        mh.attention().setThreshold(h, sh.threshold);

    // Element-identical cross-check of the two paths on one step.
    LayerAttentionResult fused;
    Matrix base_out(sh.qheads, sh.dim);
    baselineStep(sh, step_queries[0], caches, base_out);
    mh.computeInto(step_queries[0], caches, fused);
    for (uint32_t qh = 0; qh < sh.qheads; ++qh)
        for (uint32_t d = 0; d < sh.dim; ++d)
            LS_ASSERT(base_out.row(qh)[d] == fused.outputs.row(qh)[d],
                      "fused path diverged from baseline at head ", qh,
                      " dim ", d);
    std::cout << "paths bit-identical on " << sh.qheads
              << " heads; timing...\n";

    size_t pos = sh.context;
    size_t step_at = verify_steps;
    const auto appendToken = [&] {
        for (uint32_t h = 0; h < sh.kvheads; ++h)
            caches[h].append(workloads[h].keys().row(pos),
                             workloads[h].values().row(pos));
        ++pos;
    };

    // Baseline phase.
    for (size_t s = 0; s < sh.warmup; ++s) {
        appendToken();
        baselineStep(sh, step_queries[step_at++], caches, base_out);
    }
    const AllocCounters b0 = allocSnapshot();
    const auto bt0 = std::chrono::steady_clock::now();
    for (size_t s = 0; s < sh.steps; ++s) {
        appendToken();
        baselineStep(sh, step_queries[step_at++], caches, base_out);
    }
    const double base_sec = seconds(bt0);
    const AllocCounters base_alloc = allocSnapshot() - b0;

    // Fused phase (warmup settles every capacity and arena).
    for (size_t s = 0; s < sh.warmup; ++s) {
        appendToken();
        mh.computeInto(step_queries[step_at++], caches, fused);
    }
    const AllocCounters f0 = allocSnapshot();
    const auto ft0 = std::chrono::steady_clock::now();
    for (size_t s = 0; s < sh.steps; ++s) {
        appendToken();
        mh.computeInto(step_queries[step_at++], caches, fused);
    }
    const double fused_sec = seconds(ft0);
    const AllocCounters fused_alloc = allocSnapshot() - f0;

    // Scan-stage isolation: KV head 0's group at the final cache state.
    const GroupedScanNumbers gn =
        groupedScanComparison(sh, step_queries[0], caches[0], 3);

    const double steps_d = static_cast<double>(sh.steps);
    const double base_tps = steps_d / base_sec;
    const double fused_tps = steps_d / fused_sec;
    const bool hook = allocHookActive();

    std::ofstream os(out_path);
    LS_ASSERT(os.good(), "cannot write ", out_path);
    os << "{\n"
       << benchMeta("decode_hotpath", {sh.qheads, sh.kvheads, sh.dim})
       << "  \"context\": " << sh.context << ",\n"
       << "  \"steps\": " << sh.steps << ",\n"
       << "  \"threshold\": " << sh.threshold << ",\n"
       << "  \"top_k\": " << sh.hybrid.topK << ",\n"
       << "  \"alloc_hook_active\": " << (hook ? "true" : "false")
       << ",\n"
       << "  \"baseline\": {\"tokens_per_s\": " << base_tps
       << ", \"allocs_per_token\": "
       << static_cast<double>(base_alloc.allocs) / steps_d
       << ", \"bytes_per_token\": "
       << static_cast<double>(base_alloc.bytes) / steps_d << "},\n"
       << "  \"fused\": {\"tokens_per_s\": " << fused_tps
       << ", \"allocs_per_token\": "
       << static_cast<double>(fused_alloc.allocs) / steps_d
       << ", \"bytes_per_token\": "
       << static_cast<double>(fused_alloc.bytes) / steps_d << "},\n"
       << "  \"speedup\": " << fused_tps / base_tps << ",\n"
       << "  \"grouped_scan\": {\"queries\": " << group
       << ", \"keys\": " << gn.keys
       << ", \"scan_grouped_keys_per_s\": " << gn.scanGrouped
       << ", \"scan_ungrouped_keys_per_s\": " << gn.scanUngrouped
       << ", \"scan_speedup\": "
       << (gn.scanUngrouped > 0 ? gn.scanGrouped / gn.scanUngrouped : 0)
       << ", \"fused_grouped_keys_per_s\": " << gn.fusedGrouped
       << ", \"fused_ungrouped_keys_per_s\": " << gn.fusedUngrouped
       << ", \"fused_speedup\": "
       << (gn.fusedUngrouped > 0 ? gn.fusedGrouped / gn.fusedUngrouped
                                 : 0)
       << ", \"bit_identical\": "
       << (gn.bitIdentical ? "true" : "false") << "}\n}\n";

    std::cout << "baseline: " << base_tps << " tokens/s, "
              << static_cast<double>(base_alloc.allocs) / steps_d
              << " allocs/token\n"
              << "fused:    " << fused_tps << " tokens/s, "
              << static_cast<double>(fused_alloc.allocs) / steps_d
              << " allocs/token (" << fused_tps / base_tps
              << "x)\n"
              << (hook ? "" : "note: alloc hook inactive; "
                              "allocation counts are zero-valued\n");
    if (gn.keys > 0)
        std::cout << "grouped scan (" << group << " queries, " << gn.keys
                  << " keys): scan "
                  << gn.scanGrouped / gn.scanUngrouped
                  << "x, fused select "
                  << gn.fusedGrouped / gn.fusedUngrouped << "x ("
                  << (gn.bitIdentical ? "bit-identical" : "MISMATCH")
                  << ")\n";
    std::cout << "wrote " << out_path << "\n";
    return gn.bitIdentical ? 0 : 1;
}

} // namespace
} // namespace longsight

int
main(int argc, char **argv)
{
    using namespace longsight;
    Flags flags(argc, argv);
    BenchShape sh;
    sh.context = static_cast<size_t>(flags.getInt("context", 32768));
    sh.steps = static_cast<size_t>(flags.getInt("steps", 32));
    sh.warmup = static_cast<size_t>(flags.getInt("warmup", 8));
    sh.qheads = static_cast<uint32_t>(flags.getInt("qheads", 32));
    sh.kvheads = static_cast<uint32_t>(flags.getInt("kvheads", 8));
    sh.dim = static_cast<uint32_t>(flags.getInt("dim", 128));
    // d/2 + 4 keeps a realistic post-SCF survivor fraction on the
    // synthetic workload (roughly a quarter of the sparse region).
    sh.threshold = static_cast<int>(
        flags.getInt("threshold", static_cast<int64_t>(sh.dim) / 2 + 4));
    sh.hybrid.topK = static_cast<uint32_t>(flags.getInt("topk", 1024));
    sh.hybrid.windowSize =
        static_cast<uint32_t>(flags.getInt("window", 1024));
    sh.hybrid.sinkTokens =
        static_cast<uint32_t>(flags.getInt("sinks", 16));
    const auto threads =
        static_cast<unsigned>(flags.getInt("threads", 0));
    const std::string out =
        flags.getString("out", "BENCH_decode.json");
    const auto leftover = flags.unconsumed();
    LS_ASSERT(leftover.empty(), "unknown flag --", leftover.front());
    if (threads != 0)
        ThreadPool::configureGlobal(threads);
    return run(sh, out);
}
