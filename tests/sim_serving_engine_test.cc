/**
 * @file
 * SLO-aware serving engine: conservation, the monolithic-prefill
 * timeline and FIFO slot admission checked by hand arithmetic,
 * chunked-prefill TBT bounding, priority preemption with retained
 * prefixes over a BlockLedger, prefill-only and over-budget requests
 * on adversarial traces, seeded reproducibility, thread-count
 * invariance of the metrics, and goodput accounting edge cases.
 */

#include "sim/serving_engine.hh"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "model/traffic.hh"
#include "util/thread_pool.hh"

namespace longsight {
namespace {

constexpr uint32_t kBlockTokens = 128;

/**
 * Simple affine cost model: a decode step costs a base plus a per-
 * user term, prefill costs per token, restore costs per token but
 * cheaper (it is a bulk transfer, not compute).
 */
ServingCostModel
affineCosts(Tick decode_base = 5 * kMillisecond,
            Tick decode_per_user = 100 * kMicrosecond,
            Tick prefill_per_token = 10 * kMicrosecond,
            Tick restore_per_token = 1 * kMicrosecond)
{
    ServingCostModel m;
    m.decodeStepTime = [=](const std::vector<uint64_t> &contexts) {
        return decode_base + decode_per_user * contexts.size();
    };
    m.prefillChunkTime = [=](uint64_t chunk, uint64_t) {
        return prefill_per_token * chunk;
    };
    m.restoreTime = [=](uint64_t ctx) { return restore_per_token * ctx; };
    return m;
}

/** Every prefill (a whole prompt or one chunk) costs `prefill`, every
 *  decode step costs `step`, whatever the batch. */
ServingCostModel
constantCosts(Tick prefill, Tick step)
{
    ServingCostModel m;
    m.prefillChunkTime = [prefill](uint64_t, uint64_t) { return prefill; };
    m.decodeStepTime = [step](const std::vector<uint64_t> &) {
        return step;
    };
    return m;
}

/** Monolithic prefill (one whole prompt per step) under a slot cap. */
ServingEngineConfig
monolithic(uint32_t max_batch)
{
    ServingEngineConfig cfg;
    cfg.maxBatch = max_batch;
    cfg.prefillChunkTokens = 0;
    return cfg;
}

ServingRequest
request(uint32_t id, Tick arrival, uint64_t prompt, uint32_t output,
        Priority prio = Priority::Batch)
{
    ServingRequest r;
    r.id = id;
    r.arrival = arrival;
    r.promptLen = prompt;
    r.outputTokens = output;
    r.priority = prio;
    return r;
}

/** n identical requests arriving together, ids first_id, first_id+1.. */
std::vector<ServingRequest>
burst(uint32_t n, uint64_t prompt, uint32_t output, Tick at = 0,
      uint32_t first_id = 0)
{
    std::vector<ServingRequest> trace;
    for (uint32_t i = 0; i < n; ++i)
        trace.push_back(request(first_id + i, at, prompt, output));
    return trace;
}

const RequestMetrics &
metricsFor(const ServingEngineResult &res, uint32_t id)
{
    for (const auto &m : res.requests)
        if (m.id == id)
            return m;
    ADD_FAILURE() << "request " << id << " not in results";
    static RequestMetrics none;
    return none;
}

TEST(ServingEngine, ConservationAcrossAMixedTrace)
{
    TrafficConfig tcfg;
    tcfg.requests = 200;
    tcfg.promptMax = 8192;
    tcfg.outputMax = 64;
    tcfg.arrivalsPerSec = 20.0;
    const auto trace = generateTraffic(tcfg);
    uint64_t expected_tokens = 0;
    for (const auto &r : trace)
        expected_tokens += r.outputTokens;

    BlockLedger ledger(4096, kBlockTokens);
    ServingEngineConfig cfg;
    cfg.maxBatch = 16;
    ServingEngine engine(cfg, affineCosts(), &ledger);
    const auto res = engine.run(trace);

    EXPECT_EQ(res.requests.size(), trace.size());
    EXPECT_EQ(res.totalTokens, expected_tokens);
    EXPECT_EQ(ledger.inUse(), 0u) << "all blocks must be released";
    EXPECT_LE(res.peakBlocks, ledger.budget());
    EXPECT_GT(res.makespan, 0u);
    for (const auto &r : trace)
        EXPECT_EQ(metricsFor(res, r.id).tokens, r.outputTokens);
}

TEST(ServingEngine, MonolithicTimelineRestartsAtEachArrival)
{
    // A lone request pays one whole-prompt prefill step, then one
    // decode step per token. A second request after an idle gap
    // replays the same timeline from its own arrival.
    const Tick prefill = 10 * kMillisecond;
    const Tick step = 2 * kMillisecond;
    const std::vector<ServingRequest> trace = {
        request(0, 0, 50, 3),
        request(1, kSecond, 50, 3),
    };
    const auto res =
        ServingEngine(monolithic(4), constantCosts(prefill, step))
            .run(trace);
    for (const auto &r : trace) {
        EXPECT_EQ(metricsFor(res, r.id).ttft, prefill + step);
        EXPECT_EQ(metricsFor(res, r.id).completion,
                  r.arrival + prefill + 3 * step);
    }
    EXPECT_EQ(res.makespan, kSecond + prefill + 3 * step);
    EXPECT_EQ(res.prefillChunks, 2u);
}

TEST(ServingEngine, SlotCapAdmitsInArrivalOrder)
{
    const ServingCostModel cost = constantCosts(kMillisecond, kMillisecond);

    // An unsorted trace through one slot serializes in arrival order.
    const std::vector<ServingRequest> unsorted = {
        request(0, 5 * kMillisecond, 10, 2),
        request(1, 0, 10, 2),
        request(2, 2 * kMillisecond, 10, 2),
    };
    const auto serial = ServingEngine(monolithic(1), cost).run(unsorted);
    ASSERT_EQ(serial.requests.size(), 3u);
    EXPECT_EQ(serial.requests[0].id, 1u);
    EXPECT_EQ(serial.requests[1].id, 2u);
    EXPECT_EQ(serial.requests[2].id, 0u);

    // A 12-request burst into 3 slots keeps the slots full and drains
    // FIFO: with constant costs completion order is admission order.
    const auto drained = ServingEngine(monolithic(3), cost)
                             .run(burst(12, 64, 2));
    ASSERT_EQ(drained.requests.size(), 12u);
    EXPECT_EQ(drained.peakActive, 3u);
    EXPECT_EQ(drained.totalTokens, 24u);
    for (uint32_t i = 0; i < 12; ++i)
        EXPECT_EQ(drained.requests[i].id, i);
}

TEST(ServingEngine, DecodeCostSeesEachDecodersOwnContext)
{
    // Wildly mixed prompts in one batch. One prompt prefills per step,
    // so decoders join one at a time, each at its own prompt length
    // and one token longer every step after.
    std::vector<std::vector<uint64_t>> seen;
    ServingCostModel cost = constantCosts(kMillisecond, kMillisecond);
    cost.decodeStepTime = [&seen](const std::vector<uint64_t> &c) {
        seen.push_back(c);
        return Tick(kMillisecond);
    };
    const std::vector<ServingRequest> trace = {
        request(0, 0, 16, 3),
        request(1, 0, 4096, 3),
        request(2, 0, 131072, 3),
    };
    const auto res = ServingEngine(monolithic(4), cost).run(trace);
    EXPECT_EQ(res.totalTokens, 9u);
    const std::vector<std::vector<uint64_t>> expected = {
        {16}, {17, 4096}, {18, 4097, 131072}, {4098, 131073}, {131074}};
    EXPECT_EQ(seen, expected);
}

TEST(ServingEngine, BurstOnTheDrainTickIsAdmittedAfterTheRetirements)
{
    // Two requests of two tokens drain at 2P + 3S (prefill; prefill +
    // decode; decode; decode) and a second burst lands exactly then.
    // Leaving releases the blocks before that tick's admission pass,
    // so the newcomers are admitted on arrival without a gate hold and
    // the two-block ledger never over-commits.
    const Tick prefill = 3 * kMillisecond;
    const Tick step = kMillisecond;
    const Tick drain = 2 * prefill + 3 * step;
    auto trace = burst(2, 8, 2);
    for (const auto &r : burst(2, 8, 1, drain, 2))
        trace.push_back(r);
    BlockLedger ledger(2, kBlockTokens);
    const auto res =
        ServingEngine(monolithic(4), constantCosts(prefill, step), &ledger)
            .run(trace);
    EXPECT_EQ(metricsFor(res, 1).completion, drain);
    EXPECT_EQ(metricsFor(res, 2).ttft, 2 * prefill + step);
    EXPECT_EQ(metricsFor(res, 3).ttft, 2 * prefill + 2 * step);
    EXPECT_EQ(res.makespan, drain + 2 * prefill + 2 * step);
    EXPECT_EQ(res.gateHolds, 0u);
    EXPECT_EQ(res.peakActive, 2u);
    EXPECT_EQ(res.peakBlocks, 2u);
    EXPECT_EQ(ledger.inUse(), 0u);
}

TEST(ServingEngine, BatchingMultipliesThroughput)
{
    // 8 requests x 16 tokens at P = S = 1 ms. One slot serializes
    // them: 8 (P + 16 S) = 136 ms. Eight slots overlap each prefill
    // with the earlier requests' decode: P + 7 (P + S) + 16 S = 31 ms.
    const auto trace = burst(8, 100, 16);
    const ServingCostModel cost = constantCosts(kMillisecond, kMillisecond);
    const auto narrow = ServingEngine(monolithic(1), cost).run(trace);
    const auto wide = ServingEngine(monolithic(8), cost).run(trace);
    EXPECT_EQ(narrow.makespan, 136 * kMillisecond);
    EXPECT_EQ(wide.makespan, 31 * kMillisecond);
    EXPECT_GT(wide.throughputTokensPerSec,
              4.0 * narrow.throughputTokensPerSec);
}

TEST(ServingEngine, ChunkedPrefillBoundsRunningStreamsTbt)
{
    // One long-output stream is decoding when a 32K-token prompt
    // arrives. With chunked prefill the stream's worst token gap is
    // one decode + one chunk; monolithically it absorbs the entire
    // 32K prefill (~328 ms at 10 us/token).
    const std::vector<ServingRequest> trace = {
        request(0, 0, 256, 400),
        request(1, kSecond, 32768, 8),
    };

    ServingEngineConfig chunked;
    chunked.maxBatch = 4;
    chunked.prefillChunkTokens = 2048;
    ServingEngineConfig mono = chunked;
    mono.prefillChunkTokens = 0;

    const auto cres = ServingEngine(chunked, affineCosts()).run(trace);
    const auto mres = ServingEngine(mono, affineCosts()).run(trace);

    // decode base 5 ms + 2 users * 0.1 ms + 2048-token chunk at
    // 10 us/token = 20.48 ms -> every gap stays under ~26 ms.
    EXPECT_LT(metricsFor(cres, 0).maxTbtMs, 30.0);
    EXPECT_GT(metricsFor(mres, 0).maxTbtMs, 300.0)
        << "monolithic prefill must stall the running stream";

    // The chunk count is exactly the prompts' chunk arithmetic: no
    // chunk is lost, none runs twice.
    EXPECT_EQ(cres.prefillChunks, (256 + 2047) / 2048 + 32768 / 2048);
    EXPECT_EQ(mres.prefillChunks, 2u);

    // Both schedules still deliver every token.
    EXPECT_EQ(cres.totalTokens, 408u);
    EXPECT_EQ(mres.totalTokens, 408u);
}

TEST(ServingEngine, PreemptionReleasesBlocksAndRestoresPrefix)
{
    // Ledger fits ~2 big batch jobs; an interactive request arriving
    // later cannot be admitted until a batch job is evicted.
    BlockLedger ledger(64, kBlockTokens);
    const uint64_t big = 24 * kBlockTokens; // 24 blocks reserved each
    const std::vector<ServingRequest> trace = {
        request(0, 0, big - 64, 64),
        request(1, 0, big - 64, 64),
        request(2, 100 * kMillisecond, 20 * kBlockTokens - 32, 32,
                Priority::Interactive),
    };

    ServingEngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.prefillChunkTokens = 1024;
    ServingEngine engine(cfg, affineCosts(), &ledger);
    const auto res = engine.run(trace);

    EXPECT_GE(res.preemptions, 1u);
    EXPECT_GE(res.restores, 1u);
    EXPECT_LE(res.peakBlocks, ledger.budget());
    EXPECT_EQ(ledger.inUse(), 0u);

    // The newest batch job was the victim, resumed, and finished with
    // its full output; its prefix was retained (the engine never
    // re-prefills, so the chunk count stays the no-preemption sum).
    EXPECT_GE(metricsFor(res, 1).preemptions, 1u);
    EXPECT_EQ(metricsFor(res, 1).tokens, 64u);
    uint64_t chunks = 0;
    for (const auto &r : trace)
        chunks += (r.promptLen + 1023) / 1024;
    EXPECT_EQ(res.prefillChunks, chunks)
        << "a preempted request must resume, not re-prefill";

    // Preemption exists to serve the interactive class first: it must
    // beat the victim to completion despite arriving a second later.
    EXPECT_LT(metricsFor(res, 2).completion,
              metricsFor(res, 1).completion);

    // Without preemption the interactive request waits for a batch
    // job to drain instead: its first token comes strictly later.
    ServingEngineConfig no_preempt = cfg;
    no_preempt.preemption = false;
    BlockLedger ledger2(64, kBlockTokens);
    const auto res2 =
        ServingEngine(no_preempt, affineCosts(), &ledger2).run(trace);
    EXPECT_EQ(res2.preemptions, 0u);
    EXPECT_GT(metricsFor(res2, 2).ttft, metricsFor(res, 2).ttft);
}

TEST(ServingEngine, GateHoldsUnderPressureNeverOverCommit)
{
    TrafficConfig tcfg;
    tcfg.requests = 150;
    tcfg.promptMax = 4096;
    tcfg.outputMax = 32;
    tcfg.arrivalsPerSec = 50.0;
    BlockLedger ledger(512, kBlockTokens);
    ServingEngineConfig cfg;
    cfg.maxBatch = 64;
    const auto res =
        ServingEngine(cfg, affineCosts(), &ledger).run(generateTraffic(tcfg));
    EXPECT_GT(res.gateHolds, 0u) << "budget never bound; test is vacuous";
    EXPECT_LE(res.peakBlocks, ledger.budget());
    EXPECT_EQ(res.requests.size(), 150u);
}

TEST(ServingEngine, SeededTraceReproducible)
{
    TrafficConfig tcfg;
    tcfg.requests = 300;
    tcfg.promptMax = 16384;
    tcfg.process = ArrivalProcess::Diurnal;
    ServingEngineConfig cfg;
    const auto run = [&] {
        BlockLedger ledger(2048, kBlockTokens);
        return ServingEngine(cfg, affineCosts(), &ledger)
            .run(generateTraffic(tcfg));
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.totalTokens, b.totalTokens);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.gateHolds, b.gateHolds);
    EXPECT_EQ(a.peakBlocks, b.peakBlocks);
    EXPECT_EQ(a.ttftP99Ms, b.ttftP99Ms);
    EXPECT_EQ(a.tbtP99Ms, b.tbtP99Ms);
    EXPECT_EQ(a.goodputTokensPerSec, b.goodputTokensPerSec);
}

TEST(ServingEngine, MetricsBitIdenticalAcrossThreadCounts)
{
    // The engine loop is serial by contract; the cost model is where
    // a real system parallelizes. This one fans per-context work out
    // over the global pool with per-index result slots and a serial
    // reduction, so its Tick is bit-identical at any thread count —
    // and therefore so is every serving metric.
    ServingCostModel m = affineCosts();
    m.decodeStepTime = [](const std::vector<uint64_t> &contexts) {
        std::vector<Tick> per(contexts.size());
        ThreadPool::global().parallelFor(
            0, contexts.size(), [&](size_t i) {
                per[i] = kMicrosecond * (100 + contexts[i] / 64);
            });
        Tick sum = 2 * kMillisecond;
        for (Tick t : per)
            sum += t;
        return sum;
    };

    TrafficConfig tcfg;
    tcfg.requests = 200;
    tcfg.promptMax = 8192;
    ServingEngineConfig cfg;
    const auto run = [&] {
        BlockLedger ledger(2048, kBlockTokens);
        return ServingEngine(cfg, m, &ledger)
            .run(generateTraffic(tcfg));
    };

    ThreadPool::configureGlobal(1);
    const auto serial = run();
    ThreadPool::configureGlobal(8);
    const auto parallel = run();
    ThreadPool::configureGlobal(0); // restore the default pool

    EXPECT_EQ(serial.makespan, parallel.makespan);
    EXPECT_EQ(serial.totalTokens, parallel.totalTokens);
    EXPECT_EQ(serial.preemptions, parallel.preemptions);
    EXPECT_EQ(serial.gateHolds, parallel.gateHolds);
    EXPECT_EQ(serial.ttftP50Ms, parallel.ttftP50Ms);
    EXPECT_EQ(serial.ttftP99Ms, parallel.ttftP99Ms);
    EXPECT_EQ(serial.tbtP50Ms, parallel.tbtP50Ms);
    EXPECT_EQ(serial.tbtP99Ms, parallel.tbtP99Ms);
    EXPECT_EQ(serial.goodputTokensPerSec, parallel.goodputTokensPerSec);
    EXPECT_EQ(serial.sloAttainment, parallel.sloAttainment);
}

TEST(ServingEngine, GoodputCountsOnlySloAttainedTokens)
{
    const std::vector<ServingRequest> trace = {
        request(0, 0, 256, 16),
        request(1, 0, 256, 16),
    };

    // Generous SLO: everything attains, goodput == throughput.
    ServingEngineConfig generous;
    generous.slo.ttftMs = 1e6;
    generous.slo.tbtMs = 1e6;
    const auto g = ServingEngine(generous, affineCosts()).run(trace);
    EXPECT_DOUBLE_EQ(g.sloAttainment, 1.0);
    EXPECT_DOUBLE_EQ(g.goodputTokensPerSec, g.throughputTokensPerSec);

    // Impossible SLO: nothing attains, goodput is zero, throughput
    // is not.
    ServingEngineConfig impossible;
    impossible.slo.ttftMs = 1e-3;
    impossible.slo.tbtMs = 1e-3;
    const auto i = ServingEngine(impossible, affineCosts()).run(trace);
    EXPECT_DOUBLE_EQ(i.sloAttainment, 0.0);
    EXPECT_DOUBLE_EQ(i.goodputTokensPerSec, 0.0);
    EXPECT_GT(i.throughputTokensPerSec, 0.0);

    // Load-dependent steps of (2 + 2n) ms for n decoders against a
    // 20 ms TBT target: four early requests never see more than four
    // decoders (gaps <= 10 ms) and attain; every request of a later
    // burst of twelve sees a step of >= 10 decoders (>= 22 ms) and
    // misses. Attainment is exactly 4/16.
    ServingCostModel loaded;
    loaded.decodeStepTime = [](const std::vector<uint64_t> &c) {
        return Tick((2 + 2 * c.size()) * kMillisecond);
    };
    auto mixed = burst(4, 64, 8);
    for (const auto &r : burst(12, 64, 16, kSecond, 4))
        mixed.push_back(r);
    ServingEngineConfig tight = monolithic(16);
    tight.slo.tbtMs = 20.0;
    const auto l = ServingEngine(tight, loaded).run(mixed);
    EXPECT_DOUBLE_EQ(l.sloAttainment, 0.25);
    EXPECT_GT(l.goodputTokensPerSec, 0.0);
    EXPECT_LT(l.goodputTokensPerSec, l.throughputTokensPerSec);
    EXPECT_GE(l.tbtP99Ms, l.tbtP50Ms);
    EXPECT_EQ(l.peakActive, 12u);
}

TEST(ServingEngine, HistogramsSizedFromSloWithOverflowReported)
{
    // TTFT far beyond the histogram span (5 x slo): the quantile
    // saturates at the top edge and the overflow fraction says so.
    ServingEngineConfig cfg;
    cfg.slo.ttftMs = 10.0;
    cfg.prefillChunkTokens = 0;
    const std::vector<ServingRequest> trace = {
        request(0, 0, 65536, 4), // 655 ms monolithic prefill
    };
    const auto res = ServingEngine(cfg, affineCosts()).run(trace);
    EXPECT_GT(res.ttftOverflow, 0.0);
    EXPECT_DOUBLE_EQ(res.ttftP99Ms, kSloHistogramSpan * cfg.slo.ttftMs);
    EXPECT_DOUBLE_EQ(res.sloAttainment, 0.0);

    // Slow but within target, the same 660.46 ms TTFT (655.36 ms
    // prefill + one 5.1 ms step) lands in a real bin: a 2 s objective
    // spans [0, 10 s) in 50 ms bins, so nothing overflows and the
    // median is the sample's bin midpoint.
    cfg.slo.ttftMs = 2000.0;
    const auto within = ServingEngine(cfg, affineCosts()).run(trace);
    EXPECT_DOUBLE_EQ(within.ttftOverflow, 0.0);
    EXPECT_DOUBLE_EQ(within.ttftP50Ms, 675.0);
    EXPECT_DOUBLE_EQ(within.sloAttainment, 1.0);
}

TEST(ServingEngine, LedgerChargesOnlyPrivateTailForSharedPrefix)
{
    BlockLedger ledger(69, kBlockTokens, /*num_kv_heads=*/2);

    // 4096-token prompt + 64 output = 4160 tokens = 33 blocks x 2
    // heads. A 3968-token shared prefix covers 31 FULL blocks, so the
    // private charge is (33 - 31) x 2 = 4.
    EXPECT_EQ(ledger.blocksFor(4160), 66u);
    EXPECT_EQ(ledger.privateBlocksFor(4160, 3968), 4u);
    // A ragged shared prefix only discounts its whole blocks.
    EXPECT_EQ(ledger.privateBlocksFor(4160, 3968 + 100), 4u);
    // Shared prefix clamps to the context; never negative.
    EXPECT_EQ(ledger.privateBlocksFor(256, 100000), 0u);
    // Zero shared prefix degenerates to the plain charge.
    EXPECT_EQ(ledger.privateBlocksFor(4160, 0), ledger.blocksFor(4160));

    // Reserve/release with the same shared arg stays symmetric.
    ASSERT_TRUE(ledger.canReserve(4160, 3968));
    ledger.reserve(4160, 3968);
    EXPECT_EQ(ledger.inUse(), 4u);
    // The full charge no longer fits beside the reservation
    // (4 + 66 > 69); the prefix-aware one has room for many more.
    EXPECT_FALSE(ledger.canReserve(4160, 0));
    EXPECT_TRUE(ledger.canReserve(4160, 3968));
    ledger.release(4160, 3968);
    EXPECT_EQ(ledger.inUse(), 0u);
}

TEST(ServingEngine, SharedPrefixAdmitsMoreContextUnderOneBudget)
{
    // Sixteen identical 4K-prompt requests against a budget that fits
    // only TWO private prompts at a time. With a published 3968-token
    // system prefix (31 full blocks shared), each request charges 2
    // blocks instead of 33, so the whole fleet becomes concurrently
    // admissible and the shared tokens skip prefill compute.
    std::vector<ServingRequest> trace;
    for (uint32_t i = 0; i < 16; ++i)
        trace.push_back(request(i, 0, 4096, 64));

    ServingEngineConfig cfg;
    cfg.maxBatch = 32;

    BlockLedger private_ledger(66, kBlockTokens);
    const auto base =
        ServingEngine(cfg, affineCosts(), &private_ledger).run(trace);
    EXPECT_EQ(private_ledger.inUse(), 0u);
    EXPECT_LE(base.peakActive, 2u);
    EXPECT_GT(base.gateHolds, 0u);
    EXPECT_EQ(base.prefixBlocksSaved, 0u);

    for (auto &r : trace)
        r.sharedPrefixTokens = 3968;
    BlockLedger shared_ledger(66, kBlockTokens);
    const auto shared =
        ServingEngine(cfg, affineCosts(), &shared_ledger).run(trace);
    EXPECT_EQ(shared_ledger.inUse(), 0u);

    // The admitted-context gain: every request resident at once under
    // the SAME 66-block budget (16 x 2 = 32 blocks), peak context
    // 16 x 4160 tokens vs 2 x 4160 before.
    EXPECT_EQ(shared.peakActive, 16u);
    EXPECT_EQ(shared.peakBlocks, 32u);
    EXPECT_EQ(shared.prefixBlocksSaved, 16u * 31u);
    // Shared tokens are not re-prefilled: only the 128-token private
    // tails pay chunks, and the fleet finishes much sooner.
    EXPECT_LT(shared.prefillChunks, base.prefillChunks);
    EXPECT_LT(shared.makespan, base.makespan);
    EXPECT_EQ(shared.totalTokens, base.totalTokens);
}

TEST(ServingEngine, FullySharedPromptSkipsPrefillEntirely)
{
    ServingEngineConfig cfg;
    std::vector<ServingRequest> trace = {request(0, 0, 4096, 8)};
    trace[0].sharedPrefixTokens = 4096;
    BlockLedger ledger(64, kBlockTokens);
    const auto res = ServingEngine(cfg, affineCosts(), &ledger).run(trace);
    EXPECT_EQ(res.prefillChunks, 0u);
    EXPECT_EQ(res.totalTokens, 8u);
    // Only the output tail is charged: ceil(4160/128)=33 minus 32
    // whole shared blocks.
    EXPECT_EQ(res.peakBlocks, 1u);
    EXPECT_EQ(ledger.inUse(), 0u);
}

TEST(ServingEngine, ZeroOutputRequestsArePrefillOnly)
{
    // Request 0 (private 1000-token prompt, no output) pays both of
    // its 512-token prefill chunks (10 ms in all) and leaves the step
    // the last one lands; request 1 (fully shared prompt, no output)
    // leaves at admission; neither ever reaches a decode step. Request
    // 2 prefills next (2.56 ms) and decodes two 5.1 ms steps.
    std::vector<std::vector<uint64_t>> seen;
    ServingCostModel cost = affineCosts();
    const auto decode = cost.decodeStepTime;
    cost.decodeStepTime = [&](const std::vector<uint64_t> &c) {
        seen.push_back(c);
        return decode(c);
    };
    std::vector<ServingRequest> trace = {
        request(0, 0, 1000, 0),
        request(1, 0, 4096, 0),
        request(2, 0, 256, 2),
    };
    trace[1].sharedPrefixTokens = 4096;
    ServingEngineConfig cfg = monolithic(4);
    cfg.prefillChunkTokens = 512;
    BlockLedger ledger(64, kBlockTokens);
    const auto res = ServingEngine(cfg, cost, &ledger).run(trace);

    ASSERT_EQ(res.requests.size(), 3u);
    EXPECT_EQ(res.requests[0].id, 1u); // completion order
    EXPECT_EQ(metricsFor(res, 1).completion, 0u);
    EXPECT_EQ(metricsFor(res, 0).completion, 10 * kMillisecond);
    for (uint32_t id : {0u, 1u}) {
        EXPECT_EQ(metricsFor(res, id).tokens, 0u);
        EXPECT_EQ(metricsFor(res, id).ttft, 0u);
    }
    EXPECT_EQ(metricsFor(res, 2).ttft,
              10 * kMillisecond + 2560 * kMicrosecond +
                  5100 * kMicrosecond);
    EXPECT_EQ(seen, (std::vector<std::vector<uint64_t>>{{256}, {257}}));
    EXPECT_EQ(res.prefillChunks, 3u);
    EXPECT_EQ(res.totalTokens, 2u);
    EXPECT_EQ(ledger.inUse(), 0u);

    // A trace of only resident-prompt prefill-only requests never
    // steps at all: each leaves at its own arrival.
    std::vector<ServingRequest> idle = {request(0, 0, 4096, 0),
                                        request(1, kSecond, 4096, 0)};
    for (auto &r : idle)
        r.sharedPrefixTokens = 4096;
    const auto quiet = ServingEngine(cfg, cost).run(idle);
    ASSERT_EQ(quiet.requests.size(), 2u);
    EXPECT_EQ(metricsFor(quiet, 1).completion, kSecond);
    EXPECT_EQ(quiet.makespan, kSecond);
    EXPECT_EQ(quiet.prefillChunks, 0u);
}

TEST(ServingEngine, AdversarialTraceRejectsWithReasonsAndNeverPanics)
{
    // Seeded open-loop traffic in which a quarter of the output budgets
    // truncate to zero, prompts reach 4x the ledger and a quarter of
    // the requests are Interactive (so preemption churns), plus one
    // hand-placed request per edge: a prompt larger than the whole
    // budget, a zero-output private prompt, a zero-output fully shared
    // prompt, and (second run) a burst on the first run's drain tick.
    BlockLedger ledger(256, kBlockTokens);
    const uint64_t budget_tokens = ledger.budget() * kBlockTokens;
    TrafficConfig tcfg;
    tcfg.requests = 300;
    tcfg.arrivalsPerSec = 40.0;
    tcfg.promptMax = 4 * budget_tokens;
    tcfg.outputLogMean = 0.5;
    tcfg.outputMin = 0;
    tcfg.outputMax = 64;
    tcfg.interactiveFraction = 0.25;
    tcfg.seed = 13;
    auto trace = generateTraffic(tcfg);
    const auto n = static_cast<uint32_t>(trace.size());
    trace.push_back(request(n, 0, budget_tokens + 1, 4));
    trace.push_back(request(n + 1, kSecond, 1000, 0));
    trace.push_back(request(n + 2, kSecond, 4096, 0));
    trace.back().sharedPrefixTokens = 4096;

    ServingEngineConfig cfg;
    cfg.maxBatch = 16;
    const auto serve = [&](const std::vector<ServingRequest> &t) {
        const auto res = ServingEngine(cfg, affineCosts(), &ledger).run(t);
        EXPECT_EQ(res.requests.size() + res.rejected.size(), t.size());
        EXPECT_EQ(ledger.inUse(), 0u);
        EXPECT_LE(res.peakBlocks, ledger.budget());
        uint64_t tokens = 0;
        for (const auto &r : t) {
            const bool fits =
                ledger.privateBlocksFor(r.promptLen + r.outputTokens,
                                        r.sharedPrefixTokens) <=
                ledger.budget();
            const auto rej = std::find_if(
                res.rejected.begin(), res.rejected.end(),
                [&](const RejectedRequest &x) { return x.id == r.id; });
            EXPECT_EQ(rej == res.rejected.end(), fits) << "request " << r.id;
            if (rej != res.rejected.end()) {
                EXPECT_FALSE(rej->reason.empty());
                continue;
            }
            EXPECT_EQ(metricsFor(res, r.id).tokens, r.outputTokens);
            if (r.outputTokens == 0) {
                EXPECT_EQ(metricsFor(res, r.id).ttft, 0u);
            }
            tokens += r.outputTokens;
        }
        EXPECT_EQ(res.totalTokens, tokens);
        return res;
    };

    const auto first = serve(trace);
    EXPECT_GE(first.rejected.size(), 1u);
    EXPECT_GT(first.preemptions, 0u);
    const auto zero_output =
        std::count_if(trace.begin(), trace.end(), [](const auto &r) {
            return r.outputTokens == 0;
        });
    EXPECT_GT(zero_output, 2);

    // The burst lands exactly where the first run drained: nothing
    // before that tick changes, and every burst request is served.
    auto extended = trace;
    for (const auto &r : burst(8, 2048, 16, first.makespan, n + 3))
        extended.push_back(r);
    const auto second = serve(extended);
    for (const auto &m : first.requests)
        EXPECT_EQ(metricsFor(second, m.id).completion, m.completion);
    for (uint32_t id = n + 3; id < n + 11; ++id)
        EXPECT_GT(metricsFor(second, id).completion, first.makespan);
}

} // namespace
} // namespace longsight
