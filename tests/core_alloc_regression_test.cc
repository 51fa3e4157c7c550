/**
 * @file
 * Allocation regression for the decode hot path: after warmup, a
 * steady-state software decode step — KV append into a reserved cache
 * plus MultiHeadLongSight::computeInto across every query head —
 * performs exactly zero heap allocations. This binary links
 * ls_alloc_hook, so the global operator new/delete are counting
 * wrappers; nothing else in the suite pays for that.
 *
 * Under ASan/TSan the sanitizer allocator changes allocation behaviour
 * (and its own bookkeeping would show up in the counters), so the
 * zero-allocation assertions are skipped there; the decode itself
 * still runs under the sanitizer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/kv_block_pool.hh"
#include "core/kv_cache.hh"
#include "core/multi_head.hh"
#include "model/workload.hh"
#include "util/alloc_hook.hh"
#include "util/rng.hh"
#include "util/scratch_arena.hh"
#include "util/thread_pool.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LS_SANITIZED 1
#endif
#endif

namespace longsight {
namespace {

struct DecodeRig
{
    static constexpr uint32_t kDim = 64;
    static constexpr uint32_t kKvHeads = 2;
    static constexpr uint32_t kQHeads = 4;
    static constexpr size_t kContext = 1024;
    static constexpr size_t kSteps = 48;

    std::vector<HeadWorkload> workloads;
    std::unique_ptr<KvBlockPool> pool; //!< set in paged mode
    std::vector<KvCache> caches;
    MultiHeadLongSight mh;
    std::vector<Matrix> queries; //!< pregenerated, one per step
    LayerAttentionResult result;
    size_t pos = kContext;

    explicit DecodeRig(bool paged = false)
        : mh(config(), kQHeads, kKvHeads, kDim)
    {
        if (paged) {
            const uint32_t bt = 128;
            const uint32_t per_cache =
                (kContext + kSteps + bt - 1) / bt + 1;
            pool = std::make_unique<KvBlockPool>(kDim, bt,
                                                 per_cache * kKvHeads);
        }
        WorkloadConfig wcfg;
        wcfg.headDim = kDim;
        Rng root(3);
        caches.reserve(kKvHeads);
        for (uint32_t h = 0; h < kKvHeads; ++h) {
            workloads.emplace_back(wcfg, root.fork());
            workloads[h].generate(kContext + kSteps);
            if (pool)
                caches.emplace_back(*pool);
            else
                caches.emplace_back(kDim);
            caches[h].reserve(kContext + kSteps);
            for (size_t i = 0; i < kContext; ++i)
                caches[h].append(workloads[h].keys().row(i),
                                 workloads[h].values().row(i));
        }
        const uint32_t group = kQHeads / kKvHeads;
        queries.resize(kSteps);
        for (auto &m : queries) {
            m.resize(kQHeads, kDim);
            for (uint32_t q = 0; q < kQHeads; ++q) {
                const auto v = workloads[q / group].drawQuery();
                m.setRow(q, v.data());
            }
        }
    }

    static LongSightConfig config()
    {
        LongSightConfig cfg;
        cfg.windowSize = 256;
        cfg.sinkTokens = 8;
        cfg.topK = 128;
        cfg.defaultThreshold = kDim / 2;
        return cfg;
    }

    void step(size_t s)
    {
        for (uint32_t h = 0; h < kKvHeads; ++h)
            caches[h].append(workloads[h].keys().row(pos),
                             workloads[h].values().row(pos));
        ++pos;
        mh.computeInto(queries[s], caches, result);
    }
};

/**
 * Grow every lane's scratch arena past the per-head peak. Lane/index
 * assignment inside parallelFor is racy, so an ordinary warmup loop
 * cannot guarantee that each lane's arena has seen its worst case —
 * a barrier pins one index to each lane while all of them allocate.
 */
void
prewarmLaneArenas(unsigned lanes)
{
    std::atomic<unsigned> arrived{0};
    ThreadPool::global().parallelForEach(0, lanes, [&](size_t) {
        arrived.fetch_add(1);
        while (arrived.load() < lanes) {
        }
        ScratchFrame frame(ScratchArena::forThisThread());
        frame.alloc<std::byte>(1 << 20);
    });
}

void
expectZeroSteadyStateAllocs(unsigned threads, bool paged = false)
{
    ThreadPool::configureGlobal(threads);
    prewarmLaneArenas(threads);
    DecodeRig rig(paged);

    // Warmup: vector capacities, per-lane scratch arenas, and the
    // thread-pool queue all reach their steady footprint here.
    const size_t warmup = 16;
    for (size_t s = 0; s < warmup; ++s)
        rig.step(s);

    const AllocCounters before = allocSnapshot();
    for (size_t s = warmup; s < DecodeRig::kSteps; ++s)
        rig.step(s);
    const AllocCounters during = allocSnapshot() - before;

#ifdef LS_SANITIZED
    GTEST_SKIP() << "sanitizer allocator active; zero-alloc assertion "
                    "not meaningful";
#else
    ASSERT_TRUE(allocHookActive());
    EXPECT_EQ(during.allocs, 0u)
        << during.allocs << " heap allocations ("
        << during.bytes << " bytes) leaked into "
        << DecodeRig::kSteps - warmup
        << " steady-state decode steps at " << threads << " lane(s)";
    EXPECT_EQ(during.bytes, 0u);
#endif
    // Sanity either way: the steps actually computed something.
    EXPECT_EQ(rig.result.outputs.rows(), DecodeRig::kQHeads);
    EXPECT_EQ(rig.result.perQuery.size(), DecodeRig::kQHeads);
    EXPECT_GT(rig.result.stats.rawKeys, 0u);
}

TEST(AllocRegression, DecodeStepIsAllocationFreeSerial)
{
    expectZeroSteadyStateAllocs(1);
}

TEST(AllocRegression, DecodeStepIsAllocationFreeParallel)
{
    expectZeroSteadyStateAllocs(2);
    // Restore the default pool for any test run after this one.
    ThreadPool::configureGlobal(0);
}

TEST(AllocRegression, PagedDecodeStepIsAllocationFreeSerial)
{
    expectZeroSteadyStateAllocs(1, /*paged=*/true);
}

TEST(AllocRegression, PagedDecodeStepIsAllocationFreeParallel)
{
    expectZeroSteadyStateAllocs(2, /*paged=*/true);
    ThreadPool::configureGlobal(0);
}

/**
 * reserve() before installing an ITQ rotation must still cover the
 * rotated-sign store the rotation adds: the remembered ceiling is
 * re-applied when the store is allocated, so the reserve-then-enable
 * ordering keeps steady-state appends allocation-free too. (The old
 * code reserved rotatedSigns_ only when the rotation was already
 * installed, so this ordering used to reallocate on every append
 * window.)
 */
TEST(AllocRegression, ReserveThenEnableOrderingStaysAllocationFree)
{
    constexpr uint32_t dim = 64;
    constexpr size_t total = 2048;
    Rng rng(17);
    std::vector<std::vector<float>> kv;
    for (size_t i = 0; i < total; ++i)
        kv.push_back(rng.gaussianVec(dim));

    KvCache cache(dim);
    cache.reserve(total);
    // Enable AFTER the reserve, with a few rows already present.
    for (size_t i = 0; i < 8; ++i)
        cache.append(kv[i].data(), kv[i].data());
    cache.setItqRotation(Matrix::identity(dim));

    // Warmup one append (rotation scratch sizes itself once).
    cache.append(kv[8].data(), kv[8].data());

    const AllocCounters before = allocSnapshot();
    for (size_t i = 9; i < total; ++i)
        cache.append(kv[i].data(), kv[i].data());
    const AllocCounters during = allocSnapshot() - before;

#ifdef LS_SANITIZED
    GTEST_SKIP() << "sanitizer allocator active";
#else
    ASSERT_TRUE(allocHookActive());
    EXPECT_EQ(during.allocs, 0u)
        << during.allocs << " allocations in reserve-then-enable appends";
#endif
    EXPECT_EQ(cache.size(), total);
}

} // namespace
} // namespace longsight
