/**
 * @file
 * Command-line driver over the simulation stack — the "what would
 * this deployment do" tool. Subcommands:
 *
 *   serve    --model 8b --context 131072 --users 16 --system longsight
 *            decode throughput / latency / breakdown for one config
 *   capacity --model 8b --context 1000000
 *            max users per system at a context length
 *   offload  --model 8b --context 131072
 *            single DReX offload latency breakdown (Fig. 8 style)
 *   quality  --context 8192 --window 1024 --k 256 --threshold 40 --itq
 *            algorithm quality/filter ratio for one configuration
 *
 * Run:  ./build/examples/longsight_cli serve --model 8b --users 8
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "model/model_config.hh"
#include "sim/attacc_system.hh"
#include "sim/baseline_gpu.hh"
#include "sim/longsight_system.hh"
#include "sim/stats_report.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace longsight {
namespace {

ModelConfig
modelFor(const std::string &name)
{
    if (name == "1b")
        return ModelConfig::llama3_1b();
    if (name == "8b")
        return ModelConfig::llama3_8b();
    fatal("unknown --model '", name, "' (use 1b or 8b)");
}

int
cmdServe(const Flags &flags)
{
    const auto model = modelFor(flags.getString("model", "8b"));
    const uint64_t ctx = flags.getCount("context", 131072, 1);
    const auto users = static_cast<uint32_t>(
        flags.getCount("users", 8, 1, UINT32_MAX));
    const std::string system = flags.getString("system", "longsight");

    ServingResult r;
    if (system == "longsight") {
        LongSightSystem sys(LongSightSystemConfig{}, model);
        r = sys.decode(ctx, users);
    } else if (system == "1gpu" || system == "2gpu") {
        BaselineGpuSystem sys(GpuConfig::h100(), model,
                              system == "2gpu" ? 2 : 1);
        r = sys.decode(ctx, users);
    } else if (system == "attacc") {
        AttAccSystem sys(GpuConfig::h100(), model);
        r = sys.decode(ctx, users);
    } else if (system == "window") {
        SlidingWindowSystem sys(GpuConfig::h100(), model, 1024, 16);
        r = sys.decode(ctx, users);
    } else {
        fatal("unknown --system '", system, "'");
    }

    if (!r.feasible) {
        std::cout << "infeasible: " << r.limitedBy << "\n";
        return 1;
    }
    TextTable t("serve: " + model.name + ", " + fmtTokens(ctx) + " ctx, " +
                std::to_string(users) + " users, " + system);
    t.setHeader({"Metric", "Value"});
    t.addRow({"throughput", TextTable::num(r.tokensPerSecond, 1) +
                                " tokens/s"});
    t.addRow({"per-token latency",
              TextTable::num(r.perTokenLatencyUs / 1000.0, 2) + " ms"});
    t.addRow({"GPU non-attention",
              TextTable::num(toMicroseconds(r.breakdown.gpuNonAttention)) +
                  " us"});
    t.addRow({"DReX exposed",
              TextTable::num(toMicroseconds(r.breakdown.drexExposed)) +
                  " us"});
    t.addRow({"softmax+SV",
              TextTable::num(toMicroseconds(r.breakdown.softmax)) + " us"});
    t.print(std::cout);
    return 0;
}

int
cmdCapacity(const Flags &flags)
{
    const auto model = modelFor(flags.getString("model", "8b"));
    const uint64_t ctx = flags.getCount("context", 1'000'000, 1);
    BaselineGpuSystem g1(GpuConfig::h100(), model, 1);
    BaselineGpuSystem g2(GpuConfig::h100(), model, 2);
    AttAccSystem aa(GpuConfig::h100(), model);
    LongSightSystem ls(LongSightSystemConfig{}, model);
    TextTable t("capacity at " + fmtTokens(ctx) + " (" + model.name + ")");
    t.setHeader({"System", "Max users"});
    t.addRow({"1-GPU", std::to_string(g1.maxUsers(ctx))});
    t.addRow({"2-GPU", std::to_string(g2.maxUsers(ctx))});
    t.addRow({"AttAcc", std::to_string(aa.maxUsers(ctx))});
    t.addRow({"LongSight", std::to_string(ls.maxUsers(ctx))});
    t.print(std::cout);
    return 0;
}

int
cmdOffload(const Flags &flags)
{
    const auto model = modelFor(flags.getString("model", "8b"));
    const uint64_t ctx = flags.getCount("context", 131072, 1);
    LongSightSystem ls(LongSightSystemConfig{}, model);
    if (ls.sparseTokens(ctx) == 0) {
        std::cout << "context fits in the dense window; no offload\n";
        return 0;
    }
    const OffloadObservation o = ls.observeOffload(ctx);
    const OffloadTiming &b = o.result.timing;
    TextTable t("offload at " + fmtTokens(ctx) + " (" + model.name + ")");
    t.setHeader({"Phase", "us"});
    t.addRow({"address gen", TextTable::num(toMicroseconds(b.addrGen))});
    t.addRow({"PFU filter", TextTable::num(toMicroseconds(b.filter))});
    t.addRow({"bitmap read",
              TextTable::num(toMicroseconds(b.bitmapRead))});
    t.addRow({"scoring", TextTable::num(toMicroseconds(b.score))});
    t.addRow({"ranking", TextTable::num(toMicroseconds(b.rank))});
    t.addRow({"value read", TextTable::num(toMicroseconds(b.valueRead))});
    t.addRow({"value CXL",
              TextTable::num(toMicroseconds(o.cxlValueTime))});
    t.print(std::cout);

    if (flags.getBool("stats")) {
        // Re-run the offload against a visible device so its DRAM
        // activity can be dumped (observeOffload uses a private one).
        DrexConfig dc;
        dc.numKvHeads = model.numKvHeads;
        dc.numLayers = model.numLayers;
        dc.headDim = model.headDim;
        DrexDevice dev(dc);
        OffloadSpec spec;
        spec.sparseEnd = ls.sparseTokens(ctx);
        spec.survivorFraction =
            ls.survivorFraction(ls.sparseTokens(ctx));
        dev.nma(0).process(0, spec);
        StatsReport report("offload DRAM activity");
        report.addDevice("drex", dev);
        report.print(std::cout);
    }
    return 0;
}

int
cmdQuality(const Flags &flags)
{
    WorkloadConfig wcfg;
    wcfg.headDim = static_cast<uint32_t>(
        flags.getCount("dim", 64, 2, UINT32_MAX));
    if (wcfg.headDim % 2 != 0)
        fatal("flag --dim must be even (RoPE rotates pairs), got ",
              wcfg.headDim);
    const auto ctx = static_cast<size_t>(flags.getCount("context", 8192, 1));
    AlgoEvaluator eval(wcfg, 2, ctx, 12,
                       static_cast<uint64_t>(flags.getInt("seed", 1)),
                       flags.getBool("itq") ? 20 : 0);
    EvalConfig cfg;
    cfg.windowSize = static_cast<uint32_t>(
        flags.getCount("window", 1024, 0, UINT32_MAX));
    cfg.topK = static_cast<uint32_t>(flags.getCount("k", 1024, 1, UINT32_MAX));
    cfg.sinkTokens = static_cast<uint32_t>(
        flags.getCount("sinks", 16, 0, UINT32_MAX));
    cfg.useItq = flags.getBool("itq");
    cfg.thresholds.assign(
        eval.numHeads(),
        static_cast<int>(flags.getInt("threshold", 0)));
    const EvalResult r = eval.evaluate(cfg);
    TextTable t("quality at " + fmtTokens(ctx));
    t.setHeader({"Metric", "Value"});
    t.addRow({"filter ratio", TextTable::num(r.filterRatio, 1) + "x"});
    t.addRow({"sparsity", TextTable::num(100 * r.sparsity, 2) + "%"});
    t.addRow({"lost softmax mass", TextTable::num(r.lostMass, 4)});
    t.addRow({"perplexity increase",
              TextTable::num(r.pplIncreasePct, 2) + "%"});
    t.print(std::cout);
    return 0;
}

int
usage()
{
    std::cout <<
        "usage: longsight_cli <serve|capacity|offload|quality> [flags]\n"
        "  serve    --model 1b|8b --context N --users N --system "
        "longsight|1gpu|2gpu|attacc|window\n"
        "  capacity --model 1b|8b --context N\n"
        "  offload  --model 1b|8b --context N\n"
        "  quality  --context N --window N --k N --threshold N [--itq]\n"
        "  common   --threads N (host worker threads; default = all "
        "cores, 1 = serial)\n";
    return 2;
}

} // namespace
} // namespace longsight

int
main(int argc, char **argv)
{
    using namespace longsight;
    Flags flags(argc, argv);
    // 0 = all hardware threads; 1 = exact serial execution. Results
    // are bit-identical for any value (see DESIGN.md).
    ThreadPool::configureGlobal(static_cast<unsigned>(
        flags.getCount("threads", 0, 0, kMaxFlagThreads)));
    if (flags.positional().empty())
        return usage();
    const std::string cmd = flags.positional()[0];
    int rc;
    if (cmd == "serve")
        rc = cmdServe(flags);
    else if (cmd == "capacity")
        rc = cmdCapacity(flags);
    else if (cmd == "offload")
        rc = cmdOffload(flags);
    else if (cmd == "quality")
        rc = cmdQuality(flags);
    else
        return usage();
    for (const auto &name : flags.unconsumed())
        warn("unused flag --", name);
    return rc;
}
