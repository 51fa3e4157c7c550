/**
 * @file
 * Tail-latency study: users arrive over time and decode concurrently,
 * so per-token latency varies with instantaneous load (§4: attention
 * requests sit on the critical path of generation). Each user is one
 * serving-engine request whose 128K context is already resident (its
 * prompt step is free); a system decodes at most as many users at once
 * as its memory holds, and later arrivals queue for a slot. Reports
 * the TTFT and TBT distributions and SLO attainment for LongSight and
 * the 1-GPU dense baseline.
 *
 * Run:  ./build/examples/slo_study
 */

#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "model/model_config.hh"
#include "sim/baseline_gpu.hh"
#include "sim/longsight_system.hh"
#include "sim/serving_engine.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"

int
main()
{
    using namespace longsight;
    const auto model = ModelConfig::llama3_8b();
    const uint64_t ctx = 131072;
    const uint32_t users = 12;
    const uint32_t tokens_per_user = 48;
    const Tick mean_interarrival = 200 * kMillisecond;

    LongSightSystem ls(LongSightSystemConfig{}, model);
    BaselineGpuSystem gpu(GpuConfig::h100(), model, 1);

    // Seeded exponential interarrivals, one request per user.
    std::vector<ServingRequest> trace(users);
    Rng rng(1);
    Tick at = 0;
    for (uint32_t u = 0; u < users; ++u) {
        trace[u].id = u;
        trace[u].arrival = at;
        trace[u].promptLen = ctx;
        trace[u].outputTokens = tokens_per_user;
        at += static_cast<Tick>(-std::log(1.0 - rng.uniform()) *
                                static_cast<double>(mean_interarrival));
    }

    ServingEngineConfig cfg;
    cfg.prefillChunkTokens = 0; // the resident context is one free step
    cfg.slo.tbtMs = 40.0;

    TextTable t("Tail latency at " + std::to_string(ctx / 1024) +
                "K context, " + std::to_string(users) +
                " arriving users (SLO " + TextTable::num(cfg.slo.tbtMs, 0) +
                " ms/token, " + TextTable::num(cfg.slo.ttftMs, 0) +
                " ms TTFT)");
    t.setHeader({"System", "Batch cap", "TTFT p50 [ms]", "TTFT p99 [ms]",
                 "TBT p50 [ms]", "TBT p99 [ms]", "TBT>range",
                 "SLO attainment", "Peak active"});

    // The batch cap is the system's memory limit, so every decode step
    // is feasible; decode() is deterministic per user count, so it is
    // memoized.
    const auto add_row = [&](const char *name, auto &sys) {
        ServingEngineConfig c = cfg;
        c.maxBatch = sys.maxUsers(ctx + tokens_per_user);
        std::map<uint32_t, Tick> memo;
        ServingCostModel cost;
        cost.decodeStepTime = [&](const std::vector<uint64_t> &contexts) {
            const auto n = static_cast<uint32_t>(contexts.size());
            auto it = memo.find(n);
            if (it == memo.end()) {
                const ServingResult r = sys.decode(ctx, n);
                LS_ASSERT(r.feasible, n, " users infeasible: ",
                          r.limitedBy);
                it = memo.emplace(n, r.stepTime).first;
            }
            return it->second;
        };
        const ServingEngineResult r = ServingEngine(c, cost).run(trace);
        // TBT>range: fraction of TBT samples beyond the histogram span;
        // nonzero means the TBT p99 column is a lower bound.
        t.addRow({name, std::to_string(c.maxBatch),
                  TextTable::num(r.ttftP50Ms, 1),
                  TextTable::num(r.ttftP99Ms, 1),
                  TextTable::num(r.tbtP50Ms, 1),
                  TextTable::num(r.tbtP99Ms, 1),
                  TextTable::num(100.0 * r.tbtOverflow, 1) + "%",
                  TextTable::num(100.0 * r.sloAttainment, 1) + "%",
                  std::to_string(r.peakActive)});
    };
    add_row("LongSight", ls);
    add_row("1-GPU dense", gpu);
    t.print(std::cout);
    std::cout << "The dense baseline fits only "
              << gpu.maxUsers(ctx + tokens_per_user)
              << " users' KV at this context — excess arrivals queue and\n"
                 "blow the TTFT tail — while LongSight admits the whole "
                 "burst with DReX\nholding every context.\n";
    return 0;
}
