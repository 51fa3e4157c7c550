/**
 * @file
 * Paged KV cache benchmark: the three claims the block-pool refactor
 * stands on, each checked functionally and reported to
 * BENCH_paged.json.
 *
 * 1. Bit-identity — a paged cache run through full multi-head hybrid
 *    attention (ITQ rotation installed) produces byte-for-byte
 *    the outputs of the flat cache, at non-block-multiple contexts.
 *    Any divergence exits nonzero. Decode steps are also timed both
 *    ways so the span-indirection overhead is on record.
 *
 * 2. Capacity — at a fixed block budget, requests that share a long
 *    system prefix through the pool's prefix registry admit >= 2x the
 *    concurrent contexts of a flat layout that duplicates the prefix
 *    per request (the gate this binary enforces). The flat baseline is
 *    charged exact tokens, no block rounding — generous to flat.
 *
 * 3. Residency — the SCF survivor counters the attention scans record
 *    drive rebalance(): the hot window is promoted to the HBM tier,
 *    cold blocks demote, and outputs are unchanged (tier moves are
 *    accounting only; the expander is compute-enabled).
 *
 * A trace section runs the serving engine over a BlockLedger backed
 * by PartitionManager's device row budget, the way a paged serving
 * stack admits against memory instead of request count.
 *
 * Run:  ./build/bench/paged_cache
 *       ./build/bench/paged_cache --steps 32 --out BENCH_paged.json
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "core/kv_block_pool.hh"
#include "core/kv_cache.hh"
#include "core/multi_head.hh"
#include "drex/partition_manager.hh"
#include "sim/serving_engine.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace longsight {
namespace {

constexpr uint32_t kDim = 64;
constexpr uint32_t kKvHeads = 2;
constexpr uint32_t kQHeads = 4;
constexpr uint32_t kBlockTokens = 128;

/** Section 1+3 payload: identity, step timings, residency counters. */
struct IdentityResult
{
    bool identical = true;
    size_t context = 0;
    uint32_t steps = 0;
    double flatSec = 0.0;
    double pagedSec = 0.0;
    double occupancy = 0.0;
    uint32_t hbmResident = 0;
    uint64_t promotions = 0;
    uint64_t evictions = 0;
};

/**
 * Decode `steps` tokens over flat and paged cache fleets with the full
 * hybrid pipeline (ITQ rotation installed), comparing outputs
 * byte-for-byte each step. The paged pool's scan counters then drive a
 * residency rebalance, which must not perturb the next step's output.
 */
IdentityResult
runIdentity(uint32_t steps)
{
    IdentityResult r;
    const size_t n = 3001; // not a block multiple
    r.context = n;
    r.steps = steps;

    LongSightConfig cfg;
    cfg.windowSize = 256;
    cfg.sinkTokens = 8;
    cfg.topK = 128;
    cfg.defaultThreshold = kDim / 2;
    MultiHeadLongSight mh(cfg, kQHeads, kKvHeads, kDim);

    const uint32_t blocks_per_cache =
        (n + steps + kBlockTokens - 1) / kBlockTokens + 1;
    KvBlockPool pool(kDim, kBlockTokens, blocks_per_cache * kKvHeads);

    Rng root(21);
    std::vector<std::vector<float>> keys, values;
    for (size_t i = 0; i < n + steps; ++i) {
        keys.push_back(root.gaussianVec(kDim));
        values.push_back(root.gaussianVec(kDim));
    }
    std::vector<KvCache> flat, paged;
    for (uint32_t h = 0; h < kKvHeads; ++h) {
        flat.emplace_back(kDim);
        paged.emplace_back(pool);
        for (auto *c : {&flat[h], &paged[h]}) {
            c->reserve(n + steps);
            c->setItqRotation(Matrix::identity(kDim));
            for (size_t i = 0; i < n; ++i)
                c->append(keys[i].data(), values[i].data());
        }
    }

    std::vector<Matrix> queries(steps);
    for (auto &m : queries) {
        m.resize(kQHeads, kDim);
        for (uint32_t q = 0; q < kQHeads; ++q)
            m.setRow(q, root.gaussianVec(kDim).data());
    }

    LayerAttentionResult out_flat, out_paged;
    const auto decode = [&](std::vector<KvCache> &caches,
                            LayerAttentionResult &out, uint32_t s) {
        for (uint32_t h = 0; h < kKvHeads; ++h)
            caches[h].append(keys[n + s].data(), values[n + s].data());
        mh.computeInto(queries[s], caches, out);
    };
    const auto check = [&](uint32_t s) {
        if (std::memcmp(out_flat.outputs.data(), out_paged.outputs.data(),
                        out_flat.outputs.size() * sizeof(float)) != 0) {
            std::cerr << "FAIL: paged attention diverged from flat at "
                         "decode step "
                      << s << "\n";
            r.identical = false;
        }
    };

    // Interleaved timing is deliberately coarse (whole fleets, not
    // per-call) — the payload is the ratio, not absolute numbers.
    double flat_s = 0.0, paged_s = 0.0;
    for (uint32_t s = 0; s < steps; ++s) {
        auto t0 = std::chrono::steady_clock::now();
        decode(flat, out_flat, s);
        flat_s += secondsSince(t0);
        t0 = std::chrono::steady_clock::now();
        decode(paged, out_paged, s);
        paged_s += secondsSince(t0);
        check(s);
        // Mid-stream residency churn: rebalance to a half-size HBM
        // window and verify the next step still matches (tier moves
        // never change outputs).
        if (s == steps / 2) {
            pool.setHbmBudget(pool.usedBlocks() / 2);
            pool.rebalance();
        }
    }
    pool.rebalance();
    r.flatSec = flat_s;
    r.pagedSec = paged_s;
    r.occupancy = pool.occupancy();
    r.hbmResident = pool.hbmResident();
    r.promotions = pool.promotions();
    r.evictions = pool.evictions();
    return r;
}

/** Section 2 payload: concurrent contexts admitted at a fixed budget. */
struct CapacityResult
{
    uint32_t poolBlocks = 0;
    uint64_t budgetTokens = 0;
    uint64_t prefixTokens = 0;
    uint64_t tailTokens = 0;
    uint32_t flatAdmitted = 0;
    uint32_t pagedAdmitted = 0;
    double occupancy = 0.0;
    double prefixHitRate = 0.0;
    uint64_t sharedTokens = 0;

    double ratio() const
    {
        return flatAdmitted
            ? static_cast<double>(pagedAdmitted) / flatAdmitted
            : 0.0;
    }
};

/**
 * Fixed budget of pool blocks; every request = one shared system
 * prefix + a private tail. Flat duplicates the prefix per request
 * (charged exact tokens, no block rounding); paged requests adopt the
 * published prefix pages and allocate blocks only for their tails.
 * Requests are held resident until allocation fails, so the counts are
 * true concurrent capacity.
 */
CapacityResult
runCapacity()
{
    CapacityResult r;
    r.poolBlocks = 512;
    r.prefixTokens = 2048; // 16 blocks of shared system prompt
    r.tailTokens = 512;    // 4 blocks of per-request context
    KvBlockPool pool(kDim, kBlockTokens, r.poolBlocks);
    r.budgetTokens = uint64_t{r.poolBlocks} * kBlockTokens;

    // Flat baseline: every request privately stores prefix + tail.
    r.flatAdmitted = static_cast<uint32_t>(
        r.budgetTokens / (r.prefixTokens + r.tailTokens));

    Rng rng(33);
    std::vector<std::vector<float>> prefix_kv;
    for (size_t i = 0; i < r.prefixTokens; ++i)
        prefix_kv.push_back(rng.gaussianVec(kDim));

    constexpr uint64_t kPrefixHash = 0x10065ee7;
    {
        KvCache prompter(pool);
        for (const auto &v : prefix_kv)
            prompter.append(v.data(), v.data());
        const size_t published = prompter.publishPrefix(kPrefixHash);
        LS_ASSERT(published == r.prefixTokens,
                  "prefix publish covered ", published, " of ",
                  r.prefixTokens, " tokens");
        // The prompter retires; the registry pins keep the pages live.
    }

    std::vector<KvCache> resident;
    for (;;) {
        // A request needs its tail's blocks beyond the shared pages.
        if (pool.freeBlocks() < r.tailTokens / kBlockTokens)
            break;
        KvCache cache(pool);
        if (cache.adoptPrefix(kPrefixHash) != r.prefixTokens)
            break;
        for (uint64_t i = 0; i < r.tailTokens; ++i) {
            const auto v = rng.gaussianVec(kDim);
            cache.append(v.data(), v.data());
        }
        resident.push_back(std::move(cache));
    }
    r.pagedAdmitted = static_cast<uint32_t>(resident.size());
    r.occupancy = pool.occupancy();
    const uint64_t lookups = pool.prefixHits() + pool.prefixMisses();
    r.prefixHitRate = lookups
        ? static_cast<double>(pool.prefixHits()) /
            static_cast<double>(lookups)
        : 0.0;
    r.sharedTokens = pool.prefixSharedTokens();
    return r;
}

/** Section 4 payload: block-budget admission on a serving trace. */
struct TraceResult
{
    uint64_t blockBudget = 0;
    uint64_t peakBlocks = 0;
    uint64_t gateRejections = 0;
    double makespanSec = 0.0;
    double throughput = 0.0;
    uint32_t jobs = 0;
};

/**
 * Monolithic-prefill serving over a device-backed BlockLedger: a
 * request is admitted only when prompt + output budget fits the free
 * blocks, so peak residency is bounded by memory, not by a guess at
 * maxBatch.
 */
TraceResult
runTrace()
{
    TraceResult r;
    const DataLayout layout(DrexGeometry{}, LpddrTimings{}, 8, 32, 128);
    PartitionManager pm(layout, 8, 32);
    BlockLedger ledger(pm, kBlockTokens);
    r.blockBudget = ledger.budget();

    // 24 long-context requests: together they want ~3x the budget.
    std::vector<ServingRequest> trace(24);
    const uint64_t prompt =
        r.blockBudget * kBlockTokens / (8 * 8); // /heads, /8 co-resident
    for (uint32_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i;
        trace[i].arrival = Tick(i) * kMillisecond;
        trace[i].promptLen = prompt;
        trace[i].outputTokens = 64;
    }
    r.jobs = static_cast<uint32_t>(trace.size());

    ServingEngineConfig cfg;
    cfg.maxBatch = 64; // memory, not the cap, should bind
    cfg.prefillChunkTokens = 0;
    ServingCostModel cost;
    cost.prefillChunkTime = [](uint64_t chunk, uint64_t) {
        return Tick(chunk / 1000 + 1) * kMillisecond;
    };
    cost.decodeStepTime = [](const std::vector<uint64_t> &c) {
        return Tick(1 + c.size() / 8) * kMillisecond;
    };
    const ServingEngineResult res =
        ServingEngine(cfg, cost, &ledger).run(trace);
    r.peakBlocks = res.peakBlocks;
    r.gateRejections = res.gateHolds;
    r.makespanSec = toSeconds(res.makespan);
    r.throughput = res.throughputTokensPerSec;
    return r;
}

void
writeJson(const std::string &path, const IdentityResult &id,
          const CapacityResult &cap, const TraceResult &tr)
{
    std::ofstream os(path);
    LS_ASSERT(os.good(), "cannot write ", path);
    os << "{\n"
       << benchMeta("paged_cache", {kQHeads, kKvHeads, kDim})
       << "  \"block_tokens\": " << kBlockTokens << ",\n"
       << "  \"identity_context\": " << id.context << ",\n"
       << "  \"identity_steps\": " << id.steps << ",\n"
       << "  \"flat_s\": " << id.flatSec << ",\n"
       << "  \"paged_s\": " << id.pagedSec << ",\n"
       << "  \"paged_overhead\": " << id.pagedSec / id.flatSec << ",\n"
       << "  \"results_identical\": "
       << (id.identical ? "true" : "false") << ",\n"
       << "  \"identity_occupancy\": " << id.occupancy << ",\n"
       << "  \"hbm_resident_blocks\": " << id.hbmResident << ",\n"
       << "  \"promotions\": " << id.promotions << ",\n"
       << "  \"evictions\": " << id.evictions << ",\n"
       << "  \"pool_blocks\": " << cap.poolBlocks << ",\n"
       << "  \"budget_tokens\": " << cap.budgetTokens << ",\n"
       << "  \"prefix_tokens\": " << cap.prefixTokens << ",\n"
       << "  \"tail_tokens\": " << cap.tailTokens << ",\n"
       << "  \"flat_admitted\": " << cap.flatAdmitted << ",\n"
       << "  \"paged_admitted\": " << cap.pagedAdmitted << ",\n"
       << "  \"capacity_ratio\": " << cap.ratio() << ",\n"
       << "  \"capacity_occupancy\": " << cap.occupancy << ",\n"
       << "  \"prefix_hit_rate\": " << cap.prefixHitRate << ",\n"
       << "  \"prefix_shared_tokens\": " << cap.sharedTokens << ",\n"
       << "  \"trace_block_budget\": " << tr.blockBudget << ",\n"
       << "  \"trace_peak_blocks\": " << tr.peakBlocks << ",\n"
       << "  \"trace_gate_rejections\": " << tr.gateRejections << ",\n"
       << "  \"trace_jobs\": " << tr.jobs << ",\n"
       << "  \"trace_makespan_s\": " << tr.makespanSec << ",\n"
       << "  \"trace_throughput_tps\": " << tr.throughput << "\n}\n";
}

} // namespace
} // namespace longsight

int
main(int argc, char **argv)
{
    using namespace longsight;
    Flags flags(argc, argv);
    const auto steps = static_cast<uint32_t>(
        flags.getCount("steps", 24, 1, UINT32_MAX));
    const std::string out = flags.getString("out", "BENCH_paged.json");
    flags.rejectUnconsumed();

    const IdentityResult id = runIdentity(steps);
    const CapacityResult cap = runCapacity();
    const TraceResult tr = runTrace();

    TextTable t("Paged KV cache: identity, capacity, admission");
    t.setHeader({"Section", "Metric", "Value"});
    t.addRow({"identity", "outputs identical",
              id.identical ? "yes" : "NO"});
    t.addRow({"identity", "paged/flat step time",
              TextTable::num(id.pagedSec / id.flatSec, 2) + "x"});
    t.addRow({"residency", "promotions / evictions",
              std::to_string(id.promotions) + " / " +
                  std::to_string(id.evictions)});
    t.addRow({"residency", "HBM-resident blocks",
              std::to_string(id.hbmResident)});
    t.addRow({"capacity", "flat admitted",
              std::to_string(cap.flatAdmitted)});
    t.addRow({"capacity", "paged admitted",
              std::to_string(cap.pagedAdmitted)});
    t.addRow({"capacity", "ratio",
              TextTable::num(cap.ratio(), 2) + "x"});
    t.addRow({"capacity", "prefix hit rate",
              TextTable::num(cap.prefixHitRate, 3)});
    t.addRow({"trace", "peak blocks / budget",
              std::to_string(tr.peakBlocks) + " / " +
                  std::to_string(tr.blockBudget)});
    t.addRow({"trace", "gate rejections",
              std::to_string(tr.gateRejections)});
    t.print(std::cout);

    writeJson(out, id, cap, tr);
    std::cout << "wrote " << out << "\n";

    bool ok = id.identical;
    if (cap.ratio() < 2.0) {
        std::cerr << "FAIL: paged capacity ratio " << cap.ratio()
                  << " < 2.0 at fixed " << cap.budgetTokens
                  << "-token budget\n";
        ok = false;
    }
    if (tr.peakBlocks > tr.blockBudget) {
        std::cerr << "FAIL: admission gate exceeded the block budget ("
                  << tr.peakBlocks << " > " << tr.blockBudget << ")\n";
        ok = false;
    }
    return ok ? 0 : 1;
}
