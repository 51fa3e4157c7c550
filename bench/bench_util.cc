#include "bench/bench_util.hh"

#include <sstream>

#include "tensor/kernels.hh"
#include "util/thread_pool.hh"

// Injected by bench/CMakeLists.txt from `git rev-parse --short HEAD`.
#ifndef LONGSIGHT_GIT_COMMIT
#define LONGSIGHT_GIT_COMMIT "unknown"
#endif

namespace longsight {

std::string
benchMeta(const std::string &bench, const BenchModelShape &shape)
{
    std::ostringstream os;
    os << "  \"bench\": \"" << bench << "\",\n"
       << "  \"git_commit\": \"" << LONGSIGHT_GIT_COMMIT << "\",\n"
       << "  \"threads\": " << ThreadPool::global().threads() << ",\n"
       << "  \"kernel_backend\": \""
       << kernelBackendName(activeKernelBackend()) << "\",\n";
    if (shape.queryHeads != 0)
        os << "  \"model_shape\": {\"query_heads\": " << shape.queryHeads
           << ", \"kv_heads\": " << shape.kvHeads
           << ", \"head_dim\": " << shape.headDim << "},\n";
    return os.str();
}

std::optional<TuneResult>
tuneThresholds(const AlgoEvaluator &eval, EvalConfig base,
               double ppl_budget_pct, int step, uint32_t max_iters)
{
    // Feasibility probe: thresholds all zero.
    base.thresholds.assign(eval.numHeads(), 0);
    const EvalResult at_zero = eval.evaluate(base);
    if (at_zero.pplIncreasePct > ppl_budget_pct)
        return std::nullopt;

    ThresholdTuner tuner(ppl_budget_pct, step, max_iters);
    auto evaluate = [&](const std::vector<int> &th) {
        EvalConfig cfg = base;
        cfg.thresholds = th;
        const EvalResult r = eval.evaluate(cfg);
        ThresholdEval ev;
        ev.pplIncreasePct = r.pplIncreasePct;
        ev.overallFilterRatio = r.filterRatio;
        ev.headFilterRatios = r.headFilterRatios;
        return ev;
    };
    return tuner.tune(evaluate, eval.numHeads(), eval.headDim());
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::string
fmtTokens(uint64_t tokens)
{
    std::ostringstream os;
    if (tokens >= 1'000'000 && tokens % 1'000'000 == 0)
        os << tokens / 1'000'000 << "M";
    else if (tokens >= 1024 && tokens % 1024 == 0)
        os << tokens / 1024 << "K";
    else
        os << tokens;
    return os.str();
}

} // namespace longsight
