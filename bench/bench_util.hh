/**
 * @file
 * Shared helpers for the figure-reproduction benches: threshold
 * tuning against an AlgoEvaluator corpus, scaled-context notes, the
 * provenance stamp and the one wall-clock timer every bench uses.
 *
 * Scaling honesty (see DESIGN.md): quality benches run the full
 * algorithm at reduced context lengths chosen to finish in seconds on
 * one core; the sweep still spans multiple octaves so the paper's
 * qualitative shapes are visible. Performance benches simulate one
 * steady-state decode step in full detail, as the paper's own
 * framework does.
 */

#ifndef LONGSIGHT_BENCH_BENCH_UTIL_HH
#define LONGSIGHT_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/threshold_tuner.hh"
#include "eval/algo_eval.hh"

namespace longsight {

/** Model shape recorded in every bench's provenance stamp. */
struct BenchModelShape
{
    uint32_t queryHeads = 0;
    uint32_t kvHeads = 0;
    uint32_t headDim = 0;
};

/**
 * Provenance stamp shared by every BENCH_*.json: bench name, the git
 * commit the binary was built from (baked in at configure time;
 * "unknown" outside a git checkout), worker thread count, active
 * kernel backend, and — when a shape is given — the model shape.
 *
 * Returns the leading lines of a JSON object body (no surrounding
 * braces, two-space indent, trailing comma + newline), so a bench
 * opens its file with
 *
 *     os << "{\n" << benchMeta("decode_hotpath", shape) << ...
 *
 * and every artifact is self-describing enough to compare across
 * commits, hosts, and backends.
 */
std::string benchMeta(const std::string &bench,
                      const BenchModelShape &shape = {});

/**
 * Tune per-head SCF thresholds for one (evaluator, base config) pair
 * to the given perplexity budget. Returns nullopt when even threshold
 * zero exceeds the budget (the paper's 'X' cells in Fig. 3).
 */
std::optional<TuneResult>
tuneThresholds(const AlgoEvaluator &eval, EvalConfig base,
               double ppl_budget_pct, int step, uint32_t max_iters);

/** Wall-clock seconds elapsed since t0 (a steady_clock reading). */
double secondsSince(std::chrono::steady_clock::time_point t0);

/** "32K"-style human-readable token count. */
std::string fmtTokens(uint64_t tokens);

} // namespace longsight

#endif // LONGSIGHT_BENCH_BENCH_UTIL_HH
