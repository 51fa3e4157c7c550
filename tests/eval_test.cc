/**
 * @file
 * Tests for the AlgoEvaluator sweep harness — the figures depend on
 * it, so its semantics are pinned here: degenerate exactness,
 * monotonicity in thresholds/k/W, ITQ fallback, determinism,
 * agreement between the sliding-window helper and a window-only
 * configuration, and the INT8 and centroid families' degenerate
 * cases against unfiltered SCF.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "eval/algo_eval.hh"

namespace longsight {
namespace {

WorkloadConfig
smallWorkload()
{
    WorkloadConfig cfg;
    cfg.headDim = 64;
    return cfg;
}

TEST(Eval, DegenerateConfigLosesNothing)
{
    AlgoEvaluator eval(smallWorkload(), 2, 1500, 6, 1, 0);
    EvalConfig cfg;
    cfg.windowSize = 0;
    cfg.sinkTokens = 0;
    cfg.topK = 2000; // >= context
    cfg.thresholds = {0, 0};
    const EvalResult r = eval.evaluate(cfg);
    EXPECT_LT(r.lostMass, 1e-6);
    EXPECT_NEAR(r.filterRatio, 1.0, 1e-9);
    EXPECT_NEAR(r.sparsity, 0.0, 1e-9);
}

TEST(Eval, ThresholdMonotonicity)
{
    AlgoEvaluator eval(smallWorkload(), 2, 2000, 8, 2, 0);
    double prev_ratio = 0.0, prev_lost = -1.0;
    for (int th : {0, 16, 28, 36, 44}) {
        EvalConfig cfg;
        cfg.windowSize = 256;
        cfg.topK = 128;
        cfg.thresholds = {th, th};
        const EvalResult r = eval.evaluate(cfg);
        EXPECT_GE(r.filterRatio, prev_ratio - 1e-9) << th;
        EXPECT_GE(r.lostMass, prev_lost - 1e-9) << th;
        prev_ratio = r.filterRatio;
        prev_lost = r.lostMass;
    }
}

TEST(Eval, LargerKNeverHurtsQuality)
{
    AlgoEvaluator eval(smallWorkload(), 2, 3000, 8, 3, 0);
    EvalConfig small, large;
    small.windowSize = large.windowSize = 256;
    small.topK = 32;
    large.topK = 512;
    const EvalResult rs = eval.evaluate(small);
    const EvalResult rl = eval.evaluate(large);
    EXPECT_LE(rl.lostMass, rs.lostMass + 1e-9);
}

TEST(Eval, LargerWindowNeverHurtsQuality)
{
    AlgoEvaluator eval(smallWorkload(), 2, 3000, 8, 4, 0);
    EvalConfig narrow, wide;
    narrow.topK = wide.topK = 64;
    narrow.windowSize = 128;
    wide.windowSize = 1024;
    EXPECT_LE(eval.evaluate(wide).lostMass,
              eval.evaluate(narrow).lostMass + 1e-9);
}

TEST(Eval, ItqRequestWithoutTrainingFallsBackToRaw)
{
    AlgoEvaluator eval(smallWorkload(), 2, 1200, 6, 5, /*itq=*/0);
    EvalConfig raw, itq;
    raw.thresholds = itq.thresholds = {24, 24};
    raw.useItq = false;
    itq.useItq = true;
    const EvalResult a = eval.evaluate(raw);
    const EvalResult b = eval.evaluate(itq);
    EXPECT_EQ(a.stats.survivorKeys, b.stats.survivorKeys);
    EXPECT_DOUBLE_EQ(a.lostMass, b.lostMass);
}

TEST(Eval, ItqChangesFilteringWhenTrained)
{
    AlgoEvaluator eval(smallWorkload(), 2, 1200, 6, 6, /*itq=*/10);
    EvalConfig raw, itq;
    raw.thresholds = itq.thresholds = {36, 36};
    raw.useItq = false;
    itq.useItq = true;
    const EvalResult a = eval.evaluate(raw);
    const EvalResult b = eval.evaluate(itq);
    EXPECT_NE(a.stats.survivorKeys, b.stats.survivorKeys);
}

TEST(Eval, DeterministicForSeed)
{
    AlgoEvaluator a(smallWorkload(), 2, 1000, 4, 42, 5);
    AlgoEvaluator b(smallWorkload(), 2, 1000, 4, 42, 5);
    EvalConfig cfg;
    cfg.thresholds = {20, 20};
    cfg.useItq = true;
    EXPECT_DOUBLE_EQ(a.evaluate(cfg).lostMass, b.evaluate(cfg).lostMass);
}

TEST(Eval, SlidingWindowHelperMatchesWindowOnlyConfig)
{
    AlgoEvaluator eval(smallWorkload(), 2, 2000, 6, 7, 0);
    // Window-only = hybrid with a threshold that filters everything.
    EvalConfig cfg;
    cfg.windowSize = 512;
    cfg.sinkTokens = 16;
    cfg.topK = 1;
    cfg.thresholds = {65, 65}; // > headDim: nothing survives
    const EvalResult r = eval.evaluate(cfg);
    const double helper = eval.slidingWindowLostMass(512, 16);
    EXPECT_NEAR(r.lostMass, helper, 1e-9);
}

TEST(Eval, PerHeadRatiosReported)
{
    AlgoEvaluator eval(smallWorkload(), 3, 1500, 4, 8, 0);
    EvalConfig cfg;
    cfg.thresholds = {0, 30, 60};
    const EvalResult r = eval.evaluate(cfg);
    ASSERT_EQ(r.headFilterRatios.size(), 3u);
    // Monotone thresholds across heads -> monotone per-head ratios.
    EXPECT_LE(r.headFilterRatios[0], r.headFilterRatios[1]);
    EXPECT_LE(r.headFilterRatios[1], r.headFilterRatios[2]);
}

TEST(Eval, RecallPerfectWithoutFiltering)
{
    // With threshold 0 the top-k by score equals the top-k by dense
    // probability (softmax is monotone), so recall is exactly 1.
    AlgoEvaluator eval(smallWorkload(), 2, 2000, 6, 10, 0);
    EvalConfig cfg;
    cfg.windowSize = 256;
    cfg.topK = 64;
    cfg.thresholds = {0, 0};
    EXPECT_DOUBLE_EQ(eval.evaluate(cfg).recallAtK, 1.0);
}

TEST(Eval, RecallDegradesWithAggressiveFiltering)
{
    AlgoEvaluator eval(smallWorkload(), 2, 2000, 6, 11, 0);
    EvalConfig gentle, harsh;
    gentle.windowSize = harsh.windowSize = 256;
    gentle.topK = harsh.topK = 64;
    gentle.thresholds = {0, 0};
    harsh.thresholds = {44, 44};
    const double r_gentle = eval.evaluate(gentle).recallAtK;
    const double r_harsh = eval.evaluate(harsh).recallAtK;
    EXPECT_LT(r_harsh, r_gentle);
    EXPECT_GT(r_harsh, 0.0);
}

TEST(Eval, CentroidKeepAllEqualsUnfilteredScf)
{
    // Keeping every block makes every region token a candidate, so the
    // centroid family keeps the same top-k as SCF at threshold 0 under
    // the one (score, index) order, however the blocks were ranked.
    AlgoEvaluator eval(smallWorkload(), 2, 2000, 6, 12, 0);
    EvalConfig scf, centroid;
    scf.windowSize = centroid.windowSize = 200; // region not block-aligned
    scf.topK = centroid.topK = 64;
    scf.thresholds = {0, 0};
    centroid.filter = FilterKind::Centroid;
    centroid.centroidKeepFraction = 1.0;
    const EvalResult a = eval.evaluate(scf);
    const EvalResult b = eval.evaluate(centroid);
    EXPECT_EQ(a.lostMass, b.lostMass);
    EXPECT_EQ(a.recallAtK, b.recallAtK);
    EXPECT_EQ(a.stats.survivorKeys, b.stats.survivorKeys);
    EXPECT_EQ(a.stats.selectedKeys, b.stats.selectedKeys);
}

TEST(Eval, Int8SelectsWithoutSurvivorScan)
{
    // INT8 estimation ranks every region token and retrieves only its
    // selections, so survivors equal selections.
    AlgoEvaluator eval(smallWorkload(), 2, 1500, 6, 13, 0);
    EvalConfig est, scf;
    est.filter = FilterKind::Int8;
    est.windowSize = scf.windowSize = 256;
    est.topK = 64;
    const EvalResult r = eval.evaluate(est);
    EXPECT_EQ(r.stats.survivorKeys, r.stats.selectedKeys);
    EXPECT_EQ(r.stats.selectedKeys, r.stats.evaluations * 64);

    // With k covering the region it selects the whole region, as
    // unfiltered SCF does; only the order the retained mass is summed
    // in differs.
    est.topK = scf.topK = 2000;
    scf.thresholds = {0, 0};
    const EvalResult all = eval.evaluate(est);
    const EvalResult ref = eval.evaluate(scf);
    EXPECT_EQ(all.stats.survivorKeys, all.stats.selectedKeys);
    EXPECT_EQ(all.stats.selectedKeys, ref.stats.selectedKeys);
    EXPECT_NEAR(all.lostMass, ref.lostMass, 1e-12);
}

TEST(Eval, PplProxyConsistentWithLostMass)
{
    AlgoEvaluator eval(smallWorkload(), 2, 1000, 4, 9, 0);
    EvalConfig cfg;
    cfg.windowSize = 64;
    cfg.topK = 16;
    const EvalResult r = eval.evaluate(cfg);
    EXPECT_NEAR(r.pplIncreasePct,
                100.0 * (std::exp(r.lostMass) - 1.0), 1e-9);
}

} // namespace
} // namespace longsight
