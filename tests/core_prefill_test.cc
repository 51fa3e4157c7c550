/**
 * @file
 * Block-sparse prefill attention tests: the blockSignReduce kernel
 * contract across backends, knob=Dense bit-identity with the dense
 * causal prompt pass (including non-multiple block sizes and chunked
 * streams), the forced-dense accuracy contract (sink / window /
 * frontier blocks are never skipped), estimate-only stat equivalence,
 * the DecodePipeline wiring, and the serving-engine cost wrapper.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/prefill_attention.hh"
#include "model/workload.hh"
#include "sim/decode_pipeline.hh"
#include "sim/serving_engine.hh"
#include "tensor/kernels.hh"
#include "util/thread_pool.hh"

namespace longsight {
namespace {

std::vector<KernelBackend>
availableBackends()
{
    std::vector<KernelBackend> out{KernelBackend::Scalar};
    for (auto b : {KernelBackend::Avx2, KernelBackend::Neon})
        if (kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

class ScopedBackend
{
  public:
    explicit ScopedBackend(KernelBackend b) : prev_(activeKernelBackend())
    {
        setKernelBackend(b);
    }
    ~ScopedBackend() { setKernelBackend(prev_); }

  private:
    KernelBackend prev_;
};

TEST(SignReduce, MajorityAndTieRule)
{
    // dim 3 -> one word, bits 0..2. Rows: 0b101, 0b100, 0b001.
    // Per-bit counts: bit0 = 2/3 (majority -> set), bit1 = 0/3
    // (clear), bit2 = 2/3 (set).
    const std::vector<uint64_t> rows{0b101, 0b100, 0b001};
    for (KernelBackend b : availableBackends()) {
        ScopedBackend sb(b);
        uint64_t out = ~uint64_t{0};
        blockSignReduce(rows.data(), 1, rows.size(), &out);
        EXPECT_EQ(out, uint64_t{0b101}) << "backend " << int(b);

        // Even row count: exactly half set must round UP (the tie
        // lands on the packSigns v >= 0 convention). Rows 0b01, 0b10:
        // both bits are 1-of-2 -> both set.
        const std::vector<uint64_t> tie{0b01, 0b10};
        blockSignReduce(tie.data(), 1, tie.size(), &out);
        EXPECT_EQ(out, uint64_t{0b11}) << "backend " << int(b);

        // A single row reduces to itself.
        blockSignReduce(rows.data(), 1, 1, &out);
        EXPECT_EQ(out, rows[0]) << "backend " << int(b);
    }
}

TEST(SignReduce, BackendsBitIdentical)
{
    // 200 rows x 3 words with a mixed bit pattern; every backend must
    // produce the scalar oracle's words exactly, and padding bits
    // (zero in every row) must stay zero.
    const size_t wpr = 3, rows = 200;
    std::vector<uint64_t> signs(rows * wpr);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto &w : signs) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        w = x;
    }
    for (auto &w : signs)
        w &= ~(0xffull << 56); // simulated padding in the top byte
    std::vector<uint64_t> ref(wpr, 0);
    {
        ScopedBackend sb(KernelBackend::Scalar);
        blockSignReduce(signs.data(), wpr, rows, ref.data());
    }
    EXPECT_EQ(ref[wpr - 1] & (0xffull << 56), 0u);
    for (KernelBackend b : availableBackends()) {
        ScopedBackend sb(b);
        std::vector<uint64_t> got(wpr, ~uint64_t{0});
        blockSignReduce(signs.data(), wpr, rows, got.data());
        EXPECT_EQ(got, ref) << "backend " << int(b);
    }
}

TEST(SignReduce, SignMatrixSubrangeMatchesNaiveMajority)
{
    // blockSignReduce over a SignMatrix sub-range (the layout
    // BlockSparsePrefill reduces) against a naive per-bit vote.
    const size_t dim = 70, begin = 2, end = 8;
    SignMatrix m(dim);
    m.resizeRows(9);
    std::vector<float> v(dim);
    for (size_t r = 0; r < 9; ++r) {
        for (size_t d = 0; d < dim; ++d)
            v[d] = ((r * 31 + d * 7) % 5) - 2.0f;
        m.setRow(r, v.data());
    }
    const size_t wpr = m.wordsPerRow();
    std::vector<uint64_t> ref(wpr, 0);
    for (size_t d = 0; d < dim; ++d) {
        size_t set = 0;
        for (size_t r = begin; r < end; ++r)
            set += (m.row(r)[d >> 6] >> (d & 63)) & 1;
        if (2 * set >= end - begin)
            ref[d >> 6] |= uint64_t{1} << (d & 63);
    }
    for (KernelBackend b : availableBackends()) {
        ScopedBackend sb(b);
        std::vector<uint64_t> got(wpr, ~uint64_t{0});
        blockSignReduce(m.row(begin), wpr, end - begin, got.data());
        EXPECT_EQ(got, ref) << "backend " << int(b);
    }
}

/** Self-query prompt stream from the synthetic workload. */
struct Stream
{
    Matrix keys, values;
    float scale;
};

Stream
makeStream(uint32_t dim, size_t n, uint64_t seed)
{
    HeadWorkload wl(WorkloadConfig::pgLike(dim), Rng(seed));
    wl.generate(n);
    return Stream{wl.keys(), wl.values(), wl.attentionScale()};
}

PrefillSparsityConfig
smallKnob(size_t block_tokens)
{
    PrefillSparsityConfig cfg;
    cfg.blockTokens = block_tokens;
    cfg.sinkTokens = 16;
    cfg.windowTokens = 128;
    return cfg;
}

TEST(PrefillAttention, DenseKnobBitIdentical)
{
    const uint32_t dim = 64;
    const size_t n = 517; // not a multiple of any tested block size
    const Stream s = makeStream(dim, n, 5);
    Matrix ref(n, dim);
    densePrefillReference(s.keys, s.keys, s.values, s.scale, n, ref);

    for (size_t B : {size_t{64}, size_t{100}, size_t{128}, n + 64}) {
        PrefillSparsityConfig cfg = smallKnob(B);
        cfg.mode = PrefillSparsityMode::Dense;
        BlockSparsePrefill pass(dim, cfg);
        Matrix out(n, dim);
        pass.advance(s.keys, s.keys, s.values, s.scale, n, true, out);
        EXPECT_EQ(pass.processedTokens(), n);
        EXPECT_EQ(std::memcmp(ref.data(), out.data(),
                              n * dim * sizeof(float)),
                  0)
            << "block size " << B;
        // Dense knob skips nothing and attends the full prefix.
        EXPECT_EQ(pass.stats().attendedTokens, pass.stats().denseTokens);
        EXPECT_EQ(pass.stats().candidateBlocks, 0u);
    }
}

TEST(PrefillAttention, ChunkedMatchesMonolithic)
{
    const uint32_t dim = 64;
    const size_t n = 611;
    const Stream s = makeStream(dim, n, 9);
    for (auto mode : {PrefillSparsityMode::Dense,
                      PrefillSparsityMode::Threshold,
                      PrefillSparsityMode::TopFraction}) {
        PrefillSparsityConfig cfg = smallKnob(64);
        cfg.mode = mode;
        cfg.threshold = static_cast<int>(dim / 2 + 4);
        cfg.keepFraction = 0.3;

        BlockSparsePrefill mono(dim, cfg);
        Matrix a(n, dim);
        mono.advance(s.keys, s.keys, s.values, s.scale, n, true, a);

        BlockSparsePrefill chunked(dim, cfg);
        Matrix b(n, dim);
        // Irregular chunks; the partial tail only lands on flush.
        for (size_t upTo : {size_t{1}, size_t{63}, size_t{64},
                            size_t{200}, size_t{201}, size_t{512}, n}) {
            chunked.advance(s.keys, s.keys, s.values, s.scale, upTo,
                            upTo == n, b);
            if (upTo < n) {
                EXPECT_EQ(chunked.processedTokens(),
                          upTo / cfg.blockTokens * cfg.blockTokens);
            }
        }
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              n * dim * sizeof(float)),
                  0)
            << "mode " << int(mode);
        EXPECT_EQ(mono.stats().attendedTokens,
                  chunked.stats().attendedTokens);
        EXPECT_EQ(mono.stats().keptBlocks, chunked.stats().keptBlocks);
    }
}

TEST(PrefillAttention, GroupedAttendIdentityAtOddBlockSizes)
{
    // The attend scores queries in groups of kDotMultiQueries, so block
    // sizes that are not multiples of the group (and a partial tail
    // Q-block) leave short groups; every backend must still reproduce
    // the dense reference at knob = Dense and the monolithic pass under
    // any chunking, for lane-friendly and ragged head dims.
    const size_t n = 517;
    for (uint32_t dim : {38u, 64u, 128u}) {
        const Stream s = makeStream(dim, n, 31 + dim);
        Matrix ref(n, dim);
        densePrefillReference(s.keys, s.keys, s.values, s.scale, n, ref);
        const size_t bytes = n * dim * sizeof(float);
        for (KernelBackend kb : availableBackends()) {
            ScopedBackend sb(kb);
            for (size_t B : {size_t{12}, size_t{100}, size_t{129}}) {
                for (auto mode : {PrefillSparsityMode::Dense,
                                  PrefillSparsityMode::Threshold}) {
                    PrefillSparsityConfig cfg = smallKnob(B);
                    cfg.mode = mode;
                    cfg.threshold = static_cast<int>(dim / 2 + 2);
                    BlockSparsePrefill mono(dim, cfg);
                    Matrix a(n, dim);
                    mono.advance(s.keys, s.keys, s.values, s.scale, n,
                                 true, a);
                    if (mode == PrefillSparsityMode::Dense) {
                        EXPECT_EQ(std::memcmp(ref.data(), a.data(), bytes),
                                  0)
                            << kernelBackendName(kb) << " dim " << dim
                            << " B " << B;
                    }
                    BlockSparsePrefill chunked(dim, cfg);
                    Matrix b(n, dim);
                    for (size_t upTo : {size_t{1}, size_t{13}, size_t{100},
                                        size_t{250}, size_t{400}, n})
                        chunked.advance(s.keys, s.keys, s.values, s.scale,
                                        upTo, upTo == n, b);
                    EXPECT_EQ(std::memcmp(a.data(), b.data(), bytes), 0)
                        << kernelBackendName(kb) << " dim " << dim
                        << " B " << B << " mode " << int(mode);
                    EXPECT_EQ(mono.stats().attendedTokens,
                              chunked.stats().attendedTokens);
                }
            }
        }
    }
}

TEST(PrefillAttention, ForcedBlocksNeverSkipped)
{
    const uint32_t dim = 64;
    const size_t n = 700;
    const Stream s = makeStream(dim, n, 13);
    PrefillSparsityConfig cfg = smallKnob(64);
    // Impossible threshold: the knob keeps nothing, so every attended
    // token must come from the forced sink/window/frontier regions.
    cfg.threshold = static_cast<int>(dim) + 1;
    cfg.recordDecisions = true;
    BlockSparsePrefill pass(dim, cfg);
    Matrix out(n, dim);
    pass.advance(s.keys, s.keys, s.values, s.scale, n, true, out);
    EXPECT_EQ(pass.stats().keptBlocks, 0u);

    const size_t B = cfg.blockTokens;
    const size_t sink_blocks = (cfg.sinkTokens + B - 1) / B;
    uint64_t forced_pairs = 0;
    ASSERT_EQ(pass.decisions().size(), (n + B - 1) / B);
    for (const PrefillBlockDecision &d : pass.decisions()) {
        // Window anchoring: the block's first query sees at least
        // windowTokens of dense local context.
        const size_t expect_ws = d.qBegin < cfg.windowTokens
            ? 0
            : (d.qBegin - cfg.windowTokens) / B;
        EXPECT_EQ(d.windowStart, expect_ws);
        EXPECT_EQ(d.sinkBlocks,
                  std::min<size_t>(sink_blocks, d.windowStart));
        EXPECT_TRUE(d.keptBlocks.empty());
        // Count the forced pairs this decision implies: query i
        // attends token t iff t <= i and t's block is a sink or at or
        // past the window start.
        for (size_t i = d.qBegin; i < d.qEnd; ++i)
            for (size_t t = 0; t <= i; ++t) {
                const size_t tb = t / B;
                if (tb < d.sinkBlocks || tb >= d.windowStart)
                    ++forced_pairs;
            }
    }
    // The real pass attended exactly the forced set — nothing was
    // dropped from it, and nothing beyond it was added.
    EXPECT_EQ(pass.stats().attendedTokens, forced_pairs);
    // Sanity: some skipping actually happened (the contract is not
    // vacuous at this context/window).
    EXPECT_LT(pass.stats().attendedTokens, pass.stats().denseTokens);
}

TEST(PrefillAttention, EstimateOnlyMatchesRealStats)
{
    const uint32_t dim = 64;
    const size_t n = 640;
    const Stream s = makeStream(dim, n, 21);
    PrefillSparsityConfig cfg = smallKnob(64);
    cfg.threshold = static_cast<int>(dim / 2);
    cfg.recordDecisions = true;

    BlockSparsePrefill real(dim, cfg);
    Matrix out(n, dim);
    real.advance(s.keys, s.keys, s.values, s.scale, n, true, out);

    cfg.estimateOnly = true;
    BlockSparsePrefill est(dim, cfg);
    Matrix none(0, dim);
    est.advance(s.keys, s.keys, s.values, s.scale, n, true, none);

    EXPECT_EQ(real.stats().attendedTokens, est.stats().attendedTokens);
    EXPECT_EQ(real.stats().keptBlocks, est.stats().keptBlocks);
    EXPECT_EQ(real.stats().candidateBlocks, est.stats().candidateBlocks);
    ASSERT_EQ(real.decisions().size(), est.decisions().size());
    for (size_t i = 0; i < real.decisions().size(); ++i)
        EXPECT_EQ(real.decisions()[i].keptBlocks,
                  est.decisions()[i].keptBlocks);
}

TEST(PrefillAttention, ThreadCountInvariant)
{
    const uint32_t dim = 64;
    const size_t n = 523;
    const Stream s = makeStream(dim, n, 33);
    PrefillSparsityConfig cfg = smallKnob(64);
    cfg.threshold = static_cast<int>(dim / 2 + 2);
    Matrix a(n, dim), b(n, dim);
    ThreadPool::configureGlobal(1);
    {
        BlockSparsePrefill pass(dim, cfg);
        pass.advance(s.keys, s.keys, s.values, s.scale, n, true, a);
    }
    ThreadPool::configureGlobal(4);
    {
        BlockSparsePrefill pass(dim, cfg);
        pass.advance(s.keys, s.keys, s.values, s.scale, n, true, b);
    }
    ThreadPool::configureGlobal(0);
    EXPECT_EQ(
        std::memcmp(a.data(), b.data(), n * dim * sizeof(float)), 0);
}

PipelineConfig
pipelineConfig(bool sparse)
{
    PipelineConfig cfg;
    cfg.numLayers = 2;
    cfg.numQueryHeads = 4;
    cfg.numKvHeads = 2;
    cfg.headDim = 64;
    cfg.hybrid.windowSize = 128;
    cfg.hybrid.sinkTokens = 8;
    cfg.hybrid.topK = 64;
    cfg.seed = 3;
    cfg.prefillAttention = true;
    cfg.prefillSparsity = PrefillSparsityConfig{};
    cfg.prefillSparsity.blockTokens = 64;
    cfg.prefillSparsity.windowTokens = 128;
    cfg.prefillSparsity.mode = sparse ? PrefillSparsityMode::Threshold
                                      : PrefillSparsityMode::Dense;
    cfg.prefillSparsity.threshold = 36;
    return cfg;
}

DrexConfig
drexFor(const PipelineConfig &cfg)
{
    DrexConfig d;
    d.numKvHeads = cfg.numKvHeads;
    d.numLayers = cfg.numLayers;
    d.headDim = cfg.headDim;
    return d;
}

TEST(PipelinePrefill, ChunkedMatchesMonolithicAndDecodeUnperturbed)
{
    const size_t n = 421;
    const PipelineConfig cfg = pipelineConfig(true);

    DrexDevice devA(drexFor(cfg));
    DecodePipeline mono(cfg, devA, 0);
    mono.prefill(n);
    mono.flushPrefillAttention();

    DrexDevice devB(drexFor(cfg));
    DecodePipeline chunked(cfg, devB, 0);
    for (size_t done = 0; done < n;) {
        const size_t step = std::min<size_t>(97, n - done);
        chunked.prefillChunk(step);
        done += step;
    }
    // No explicit flush: the first decode step must flush the tail.
    const PipelineStepResult r1 = chunked.decodeStep();
    const PipelineStepResult r2 = mono.decodeStep();
    EXPECT_EQ(r1.deviceMatchedSoftware, r2.deviceMatchedSoftware);
    EXPECT_EQ(r1.minRetainedMass, r2.minRetainedMass);

    for (uint32_t l = 0; l < cfg.numLayers; ++l)
        for (uint32_t h = 0; h < cfg.numKvHeads; ++h) {
            const Matrix &a = mono.prefillAttentionOutput(l, h);
            const Matrix &b = chunked.prefillAttentionOutput(l, h);
            ASSERT_EQ(a.rows(), n);
            ASSERT_EQ(b.rows(), n);
            EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                  n * cfg.headDim * sizeof(float)),
                      0)
                << "layer " << l << " head " << h;
            EXPECT_EQ(
                mono.prefillAttentionHead(l, h).processedTokens(), n);
        }
    const PrefillStats st = mono.prefillAttentionStats();
    EXPECT_EQ(st.qBlocks,
              uint64_t{cfg.numLayers} * cfg.numKvHeads *
                  ((n + 63) / 64));
    EXPECT_GT(st.denseTokens, st.attendedTokens);
}

TEST(PipelinePrefill, SparsePassDoesNotPerturbDecode)
{
    // The prompt pass rides along read-only: decode results with it
    // enabled (any knob) are bit-identical to a pipeline without it.
    const size_t n = 300;
    PipelineConfig off = pipelineConfig(true);
    off.prefillAttention = false;
    PipelineConfig on = pipelineConfig(true);

    DrexDevice devA(drexFor(off)), devB(drexFor(on));
    DecodePipeline base(off, devA, 0), sparse(on, devB, 0);
    base.prefill(n);
    sparse.prefill(n);
    for (int i = 0; i < 3; ++i) {
        const PipelineStepResult a = base.decodeStep();
        const PipelineStepResult b = sparse.decodeStep();
        EXPECT_EQ(a.offloadsIssued, b.offloadsIssued);
        EXPECT_EQ(a.tokensFlushed, b.tokensFlushed);
        EXPECT_EQ(a.minRetainedMass, b.minRetainedMass);
        EXPECT_EQ(a.deviceMatchedSoftware, b.deviceMatchedSoftware);
    }
    // Decode-time context growth never reopens the frozen prompt pass.
    EXPECT_EQ(sparse.prefillAttentionHead(0, 0).processedTokens(), n);
}

TEST(PipelinePrefill, PerHeadThresholdKnob)
{
    const size_t n = 256;
    PipelineConfig cfg = pipelineConfig(true);
    cfg.prefillSparsity.windowTokens = 64;
    cfg.prefillHeadThresholds = {20, 60}; // loose head 0, tight head 1
    DrexDevice dev(drexFor(cfg));
    DecodePipeline pipe(cfg, dev, 0);
    pipe.prefill(n);
    pipe.flushPrefillAttention();
    const auto &loose = pipe.prefillAttentionHead(0, 0);
    const auto &tight = pipe.prefillAttentionHead(0, 1);
    EXPECT_EQ(loose.config().threshold, 20);
    EXPECT_EQ(tight.config().threshold, 60);
    // A looser threshold keeps at least as many candidate blocks.
    EXPECT_GE(loose.stats().keptBlocks, tight.stats().keptBlocks);
}

TEST(ServingCosts, SparsePrefillWrapper)
{
    auto dense = [](uint64_t chunk, uint64_t done) {
        return Tick((chunk + done) * 100);
    };
    // Degenerate parameters reproduce the dense callback exactly.
    SparsePrefillCostParams ident;
    auto same = sparsePrefillChunkTime(dense, ident);
    EXPECT_EQ(same(2048, 4096), dense(2048, 4096));

    // 60% attention share at 25% attended + 5% estimation overhead:
    // scale = 0.4 + 0.6 * 0.30 = 0.58.
    SparsePrefillCostParams p;
    p.attentionShare = 0.6;
    p.attendedFraction = 0.25;
    p.estimationOverhead = 0.05;
    auto sparse = sparsePrefillChunkTime(dense, p);
    EXPECT_EQ(sparse(1000, 0),
              static_cast<Tick>(double(dense(1000, 0)) * 0.58 + 0.5));
}

} // namespace
} // namespace longsight
