/**
 * @file
 * perfbench measurement program. Runs one workload through the public
 * LongSight API and prints one JSON object of raw samples on stdout;
 * perfbench/run.py generates the inputs, builds this program, and
 * turns its samples into metrics.
 *
 *   perfbench_measure --workload decode_long --mix mix.txt --seed 7 \
 *       --seconds 30 --threads 1 --alt-threads 2 --trace 0
 *
 * The mix file holds one "prompt_tokens output_tokens" pair per line.
 *
 * Untraced run: the workload is set up kSetupReps times at --threads
 * (set-up plus warm-up ops, timed). The last set-up then runs timed
 * ops for --seconds (longer if a tail needs more samples) and drains.
 * Finally one more set-up runs the warm-up ops at --alt-threads; every
 * warm-up digest must agree.
 *
 * Traced run (--trace 1): the same ops run twice in lockstep, once on
 * DecodePipeline and once on ReplayPipeline with spans on. Results
 * must agree bit for bit; spans go to --spans.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "replay_pipeline.hh"
#include "sim/decode_pipeline.hh"
#include "tensor/kernels.hh"
#include "tracer.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace perfbench {
namespace {

using namespace longsight;

/** A step whose retained dense mass falls below this has failed. */
constexpr double kMassFloor = 0.5;
/** retained_mass_mean covers exactly this many timed step results. */
constexpr size_t kMassSamples = 200;
/** A p90 needs ten samples beyond it; the timed phase runs on
 *  (up to kMaxSecondsFactor x --seconds) until it has them. */
constexpr size_t kMinTailSamples = 100;
constexpr double kMaxSecondsFactor = 3.0;
constexpr int kSetupReps = 3;
/** peak_rss_mb is read once this many timed requests have finished:
 *  a fixed amount of work, so a faster build that fits more requests
 *  into --seconds is not charged for the extra ones. */
constexpr uint64_t kRssRequests = 64;

struct Request
{
    uint32_t prompt = 0;
    uint32_t output = 0;
};

double
toMs(int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Everything one phase of a workload measured. */
struct Run
{
    std::vector<double> ttftMs, tbtMs, queueWaitMs, chunkStallMs;
    std::vector<double> batchSizes, occupancy;
    /** Per prefill / decode call: tokens it produced and its time. */
    std::vector<double> prefillTokens, prefillMs, decodeTokens, decodeMs;
    std::vector<PipelineStepResult> results;
    uint64_t attempted = 0, failed = 0, finished = 0;
    double peakRssAtMarkMb = 0.0; //!< at the kRssRequests-th finish
    std::string firstFailure;

    void fail(const std::string &why)
    {
        ++failed;
        if (firstFailure.empty())
            firstFailure = why;
    }

    /** Record and judge one step result. */
    void step(const PipelineStepResult &r)
    {
        results.push_back(r);
        ++attempted;
        if (!r.deviceMatchedSoftware)
            fail("device top-k differs from the software selection");
        else if (r.minRetainedMass < kMassFloor)
            fail("retained mass below the floor");
    }

    void finishRequest()
    {
        ++attempted;
        if (++finished == kRssRequests)
            peakRssAtMarkMb = peakRssMb();
    }

    void prefillCall(uint32_t tokens, int64_t ns)
    {
        prefillTokens.push_back(tokens);
        prefillMs.push_back(toMs(ns));
    }
    void decodeCall(size_t tokens, int64_t ns)
    {
        decodeTokens.push_back(static_cast<double>(tokens));
        decodeMs.push_back(toMs(ns));
    }

    bool tailsFilled() const
    {
        return ttftMs.size() >= kMinTailSamples &&
            tbtMs.size() >= kMinTailSamples &&
            results.size() >= kMassSamples;
    }
};

/** FNV-1a over every PipelineStepResult field, bitwise. */
uint64_t
digest(const std::vector<PipelineStepResult> &results)
{
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    };
    for (const PipelineStepResult &r : results) {
        uint64_t mass_bits = 0;
        static_assert(sizeof(mass_bits) == sizeof(r.minRetainedMass));
        std::memcpy(&mass_bits, &r.minRetainedMass, sizeof(mass_bits));
        const uint8_t matched = r.deviceMatchedSoftware ? 1 : 0;
        mix(&r.offloadsIssued, sizeof(r.offloadsIssued));
        mix(&r.tokensFlushed, sizeof(r.tokensFlushed));
        mix(&mass_bits, sizeof(mass_bits));
        mix(&matched, sizeof(matched));
    }
    return h;
}

bool
sameResults(const PipelineStepResult &a, const PipelineStepResult &b)
{
    return digest({a}) == digest({b});
}

DrexConfig
deviceFor(const PipelineConfig &p)
{
    DrexConfig d;
    d.numKvHeads = p.numKvHeads;
    d.numLayers = p.numLayers;
    d.headDim = p.headDim;
    return d;
}

// Replay-only bookkeeping; DecodePipeline has no counters to add.
void
addCounters(const DecodePipeline &, ReplayCounters &)
{
}
void
addCounters(const ReplayPipeline &p, ReplayCounters &total)
{
    total.merge(p.counters());
}

/** Pool occupancy summed over pipelines (0 when KV is flat). */
template <class P>
void
sampleOccupancy(const std::vector<P *> &pipes, Run &run)
{
    uint64_t used = 0, total = 0;
    for (P *p : pipes)
        if (KvBlockPool *pool = p->blockPool()) {
            used += pool->usedBlocks();
            total += pool->numBlocks();
        }
    run.occupancy.push_back(total == 0 ? 0.0
                                       : static_cast<double>(used) /
                                             static_cast<double>(total));
}

/**
 * Decode one request's answer on its own (the single-request
 * workloads): the first token sets TTFT from arrival, the rest TBT.
 */
template <class P>
void
decodeAnswer(P &pipe, uint32_t tokens, int64_t arrival, Run &run)
{
    int64_t last = arrival;
    for (uint32_t t = 0; t < tokens; ++t) {
        const int64_t s0 = tracer::nowNs();
        const PipelineStepResult r = pipe.decodeStep();
        const int64_t s1 = tracer::nowNs();
        run.decodeCall(1, s1 - s0);
        run.step(r);
        (t == 0 ? run.ttftMs : run.tbtMs).push_back(toMs(s1 - last));
        last = s1;
        run.batchSizes.push_back(1.0);
        run.chunkStallMs.push_back(0.0);
    }
}

/**
 * decode_long: one request on a standing context (prefilled in
 * set-up), then short-answer turns: each turn appends its user tokens
 * with prefillChunk and decodes its answer with decodeStep. Flat KV,
 * no sparse prompt pass, no batching.
 */
template <class P>
class DecodeLong
{
  public:
    static constexpr size_t kWarmupOps = 2;

    static PipelineConfig config(uint64_t seed)
    {
        PipelineConfig c;
        c.numLayers = 2; // a slice of Llama-3.2-1B: 32Q / 8KV, d = 64
        c.numQueryHeads = 32;
        c.numKvHeads = 8;
        c.headDim = 64;
        c.hybrid.windowSize = 1024;
        c.hybrid.sinkTokens = 16;
        c.hybrid.topK = 1024;
        c.hybrid.defaultThreshold = 24;
        c.seed = seed;
        return c;
    }

    DecodeLong(const std::vector<Request> &mix, uint64_t seed)
        : mix_(mix), cfg_(config(seed)), device_(deviceFor(cfg_)),
          pipe_(cfg_, device_, 0)
    {
        pipe_.prefill(mix_.front().prompt);
    }

    bool exhausted() const { return next_ >= mix_.size(); }
    bool busy() const { return false; }
    void close() {}

    void op(Run &run)
    {
        const Request &turn = mix_[next_++];
        // One client on one slot: a turn is dispatched as it arrives,
        // so its queue wait is only the dispatch gap.
        const int64_t arrival = tracer::nowNs();
        const int64_t c0 = tracer::nowNs();
        run.queueWaitMs.push_back(toMs(c0 - arrival));
        tracer::record(SpanKind::ServeQueueWait, arrival, c0);
        pipe_.prefillChunk(turn.prompt);
        run.prefillCall(turn.prompt, tracer::nowNs() - c0);
        decodeAnswer(pipe_, turn.output, arrival, run);
        sampleOccupancy<P>({&pipe_}, run);
        run.finishRequest();
    }

    void addTotals(ReplayCounters &c, PrefillStats &s) const
    {
        addCounters(pipe_, c);
        s.merge(pipe_.prefillAttentionStats());
    }

  private:
    const std::vector<Request> &mix_;
    PipelineConfig cfg_;
    DrexDevice device_;
    P pipe_;
    size_t next_ = 1; // mix_[0] is the standing context
};

/**
 * prompt_sparse: one prompt at a time (a closed loop with one
 * client): monolithic prefill with the block-sparse prompt pass, its
 * flush, then the answer's decode steps. Paged KV. A fresh device
 * every kEpoch prompts bounds device memory (it never frees contexts).
 */
template <class P>
class PromptSparse
{
  public:
    static constexpr size_t kWarmupOps = 2;
    static constexpr uint32_t kEpoch = 4;

    static PipelineConfig config(uint64_t seed, uint32_t max_context)
    {
        PipelineConfig c;
        c.numLayers = 1; // one GQA group of the 1B shape: 4Q / 1KV
        c.numQueryHeads = 4;
        c.numKvHeads = 1;
        c.headDim = 64;
        c.hybrid.windowSize = 1024;
        c.hybrid.sinkTokens = 16;
        c.hybrid.topK = 512;
        c.hybrid.defaultThreshold = 24;
        c.pagedKv = true;
        c.pagedBlockTokens = 128;
        c.pagedMaxContext = max_context;
        c.prefillAttention = true;
        c.prefillSparsity.blockTokens = 128;
        c.prefillSparsity.mode = PrefillSparsityMode::Threshold;
        c.prefillSparsity.threshold = 36;
        c.prefillSparsity.sinkTokens = 16;
        c.prefillSparsity.windowTokens = 512;
        c.seed = seed;
        return c;
    }

    PromptSparse(const std::vector<Request> &mix, uint64_t seed)
        : mix_(mix), seed_(seed)
    {
        uint32_t max_context = 0;
        for (const Request &r : mix_)
            max_context = std::max(max_context, r.prompt + r.output);
        cfg_ = config(seed, max_context);
        device_ = std::make_unique<DrexDevice>(deviceFor(cfg_));
    }

    bool exhausted() const { return next_ >= mix_.size(); }
    bool busy() const { return false; }
    void close() {}

    void op(Run &run)
    {
        if (uid_ == kEpoch) {
            device_ = std::make_unique<DrexDevice>(deviceFor(cfg_));
            uid_ = 0;
        }
        const Request &req = mix_[next_];
        // Each prompt draws its own token stream.
        PipelineConfig cfg = cfg_;
        cfg.seed = seed_ + next_++;
        const int64_t arrival = tracer::nowNs();
        P pipe(cfg, *device_, uid_++);
        const int64_t c0 = tracer::nowNs();
        run.queueWaitMs.push_back(toMs(c0 - arrival));
        tracer::record(SpanKind::ServeQueueWait, arrival, c0);
        pipe.prefill(req.prompt);
        pipe.flushPrefillAttention();
        run.prefillCall(req.prompt, tracer::nowNs() - c0);
        decodeAnswer(pipe, req.output, arrival, run);
        sampleOccupancy<P>({&pipe}, run);
        run.finishRequest();
        addCounters(pipe, counters_);
        prefillStats_.merge(pipe.prefillAttentionStats());
    }

    void addTotals(ReplayCounters &c, PrefillStats &s) const
    {
        c.merge(counters_);
        s.merge(prefillStats_);
    }

  private:
    const std::vector<Request> &mix_;
    uint64_t seed_;
    PipelineConfig cfg_;
    std::unique_ptr<DrexDevice> device_;
    uint32_t uid_ = 0;
    size_t next_ = 0;
    ReplayCounters counters_;
    PrefillStats prefillStats_;
};

/**
 * serve_mixed: a closed loop of kClients clients over kSlots slots on
 * one shared device. Each iteration admits queued requests into free
 * slots, runs at most one prefillChunk (kChunk tokens, oldest
 * prefilling request first), then one decodeStepBatch over every
 * request whose prompt is complete. A finished request's client
 * sends its next request at once. The device is replaced after every
 * kEpoch admissions (once the slots drain), since it never frees
 * contexts and its DCC serves at most 512 users.
 */
template <class P>
class ServeMixed
{
  public:
    // Enough iterations to prefill and start decoding the mix's
    // fixed-size lead requests (lib.WARMUP_LEAD in run.py's helpers).
    static constexpr size_t kWarmupOps = 24;
    static constexpr size_t kSlots = 4;
    static constexpr size_t kClients = 6;
    static constexpr uint32_t kChunk = 512;
    static constexpr uint32_t kEpoch = 32;

    static PipelineConfig config(uint64_t seed, uint32_t max_context)
    {
        PipelineConfig c;
        c.numLayers = 2;
        c.numQueryHeads = 8;
        c.numKvHeads = 2;
        c.headDim = 64;
        c.hybrid.windowSize = 256;
        c.hybrid.sinkTokens = 16;
        c.hybrid.topK = 256;
        c.hybrid.defaultThreshold = 24;
        c.pagedKv = true;
        c.pagedBlockTokens = 64;
        c.pagedMaxContext = max_context;
        c.seed = seed;
        return c;
    }

    ServeMixed(const std::vector<Request> &mix, uint64_t seed)
        : mix_(mix), seed_(seed)
    {
        uint32_t max_context = 0;
        for (const Request &r : mix_)
            max_context = std::max(max_context, r.prompt + r.output);
        cfg_ = config(seed, max_context);
        device_ = std::make_unique<DrexDevice>(deviceFor(cfg_));
        const int64_t t = tracer::nowNs();
        for (size_t c = 0; c < kClients; ++c)
            arrive(t);
    }

    bool exhausted() const
    {
        return active_.empty() && queue_.empty() && next_ >= mix_.size();
    }
    bool busy() const { return !active_.empty(); }
    /** Stop admitting: the remaining ops drain the slots. */
    void close() { closed_ = true; }

    void op(Run &run)
    {
        admit(run);
        // One prompt chunk, oldest prefilling request first.
        int64_t chunk_ns = 0;
        for (Active &a : active_) {
            if (a.prefilled == a.req.prompt)
                continue;
            const uint32_t n = std::min(kChunk, a.req.prompt - a.prefilled);
            Scope span(SpanKind::ServeChunk);
            const int64_t c0 = tracer::nowNs();
            a.pipe->prefillChunk(n);
            a.prefilled += n;
            if (a.prefilled == a.req.prompt)
                a.pipe->flushPrefillAttention();
            chunk_ns = tracer::nowNs() - c0;
            run.prefillCall(n, chunk_ns);
            break;
        }

        batch_.clear();
        std::vector<Active *> members;
        for (Active &a : active_)
            if (a.prefilled == a.req.prompt) {
                batch_.push_back(a.pipe.get());
                members.push_back(&a);
            }
        if (!batch_.empty()) {
            Scope span(SpanKind::ServeDecodeBatch);
            const int64_t s0 = tracer::nowNs();
            P::decodeStepBatch(batch_, results_);
            const int64_t s1 = tracer::nowNs();
            run.decodeCall(batch_.size(), s1 - s0);
            run.batchSizes.push_back(static_cast<double>(batch_.size()));
            run.chunkStallMs.push_back(toMs(chunk_ns));
            for (size_t i = 0; i < members.size(); ++i) {
                Active &a = *members[i];
                run.step(results_[i]);
                (a.generated == 0 ? run.ttftMs : run.tbtMs)
                    .push_back(toMs(s1 - (a.generated == 0 ? a.arrival
                                                           : a.lastToken)));
                a.lastToken = s1;
                ++a.generated;
            }
        }
        std::vector<P *> live;
        for (Active &a : active_)
            live.push_back(a.pipe.get());
        sampleOccupancy(live, run);

        // Retire finished requests; each client sends its next one.
        for (size_t i = 0; i < active_.size();) {
            Active &a = active_[i];
            if (a.generated < a.req.output) {
                ++i;
                continue;
            }
            addCounters(*a.pipe, counters_);
            prefillStats_.merge(a.pipe->prefillAttentionStats());
            run.finishRequest();
            active_.erase(active_.begin() + static_cast<long>(i));
            arrive(tracer::nowNs());
        }
    }

    void addTotals(ReplayCounters &c, PrefillStats &s) const
    {
        c.merge(counters_);
        s.merge(prefillStats_);
        for (const Active &a : active_) {
            addCounters(*a.pipe, c);
            s.merge(a.pipe->prefillAttentionStats());
        }
    }

  private:
    struct Active
    {
        std::unique_ptr<P> pipe;
        Request req;
        uint32_t prefilled = 0;
        uint32_t generated = 0;
        int64_t arrival = 0;
        int64_t lastToken = 0;
    };
    struct Queued
    {
        size_t index = 0;
        int64_t arrival = 0;
    };

    void arrive(int64_t t)
    {
        if (!closed_ && next_ < mix_.size())
            queue_.push_back({next_++, t});
    }

    void admit(Run &run)
    {
        if (uid_ == kEpoch && active_.empty()) {
            device_ = std::make_unique<DrexDevice>(deviceFor(cfg_));
            uid_ = 0;
        }
        while (!closed_ && active_.size() < kSlots && !queue_.empty() &&
               uid_ < kEpoch) {
            const Queued q = queue_.front();
            queue_.erase(queue_.begin());
            PipelineConfig cfg = cfg_;
            cfg.seed = seed_ + q.index;
            Active a;
            a.pipe = std::make_unique<P>(cfg, *device_, uid_++);
            a.req = mix_[q.index];
            a.arrival = q.arrival;
            const int64_t t = tracer::nowNs();
            run.queueWaitMs.push_back(toMs(t - q.arrival));
            tracer::record(SpanKind::ServeQueueWait, q.arrival, t);
            active_.push_back(std::move(a));
        }
    }

    const std::vector<Request> &mix_;
    uint64_t seed_;
    PipelineConfig cfg_;
    std::unique_ptr<DrexDevice> device_;
    uint32_t uid_ = 0;
    size_t next_ = 0;
    bool closed_ = false;
    std::vector<Queued> queue_;
    std::vector<Active> active_;
    std::vector<P *> batch_;
    std::vector<PipelineStepResult> results_;
    ReplayCounters counters_;
    PrefillStats prefillStats_;
};

struct Options
{
    std::string workload;
    std::string mixPath;
    std::string spansPath;
    uint64_t seed = 1;
    double seconds = 10.0;
    unsigned threads = 1;
    unsigned altThreads = 2;
    bool trace = false;
};

std::vector<Request>
readMix(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read mix file ", path);
    std::vector<Request> mix;
    Request r;
    while (in >> r.prompt >> r.output)
        mix.push_back(r);
    if (mix.empty())
        fatal("empty mix file ", path);
    return mix;
}

/** Minimal JSON object writer for the sample dump. */
class JsonOut
{
  public:
    explicit JsonOut(std::ostream &os) : os_(os)
    {
        os_ << std::setprecision(17) << "{";
    }
    ~JsonOut() { os_ << "}\n"; }

    template <class T>
    void field(const char *name, const T &v)
    {
        key(name);
        os_ << v;
    }
    void str(const char *name, const std::string &v)
    {
        key(name);
        os_ << '"' << v << '"';
    }
    void boolean(const char *name, bool v)
    {
        key(name);
        os_ << (v ? "true" : "false");
    }
    void list(const char *name, const std::vector<double> &v)
    {
        key(name);
        os_ << "[";
        for (size_t i = 0; i < v.size(); ++i)
            os_ << (i ? "," : "") << v[i];
        os_ << "]";
    }

  private:
    void key(const char *name)
    {
        os_ << (first_ ? "" : ",") << '"' << name << "\":";
        first_ = false;
    }
    std::ostream &os_;
    bool first_ = true;
};

void
writeRun(JsonOut &j, const Run &run)
{
    j.list("ttft_ms", run.ttftMs);
    j.list("tbt_ms", run.tbtMs);
    j.list("queue_wait_ms", run.queueWaitMs);
    j.list("chunk_stall_ms", run.chunkStallMs);
    j.list("batch_sizes", run.batchSizes);
    j.list("occupancy", run.occupancy);
    j.list("prefill_tokens", run.prefillTokens);
    j.list("prefill_ms", run.prefillMs);
    j.list("decode_tokens", run.decodeTokens);
    j.list("decode_ms", run.decodeMs);
    std::vector<double> mass;
    for (size_t i = 0; i < std::min(kMassSamples, run.results.size()); ++i)
        mass.push_back(run.results[i].minRetainedMass);
    j.list("mass", mass);
    double mass_min = 1.0;
    for (const PipelineStepResult &r : run.results)
        mass_min = std::min(mass_min, r.minRetainedMass);
    j.field("mass_min", mass_min);
    j.field("attempted", run.attempted);
    j.field("failed", run.failed);
    j.str("first_failure", run.firstFailure);
}

/** Run ops until the deadline (and the tails are filled), then drain. */
template <class W>
void
timedOps(W &w, Run &run, double seconds)
{
    const int64_t t0 = tracer::nowNs();
    const auto deadline = t0 + static_cast<int64_t>(seconds * 1e9);
    const auto hard_stop =
        t0 + static_cast<int64_t>(kMaxSecondsFactor * seconds * 1e9);
    while (!w.exhausted()) {
        const int64_t t = tracer::nowNs();
        if (t >= hard_stop || (t >= deadline && run.tailsFilled()))
            break;
        w.op(run);
    }
    w.close();
    while (w.busy())
        w.op(run);
}

template <template <class> class W>
int
runUntraced(const Options &o, const std::vector<Request> &mix)
{
    ThreadPool::configureGlobal(o.threads);
    std::vector<double> setup_s;
    std::vector<uint64_t> digests;
    Run warmup;
    std::unique_ptr<W<DecodePipeline>> kept;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        kept.reset();
        Run r;
        const int64_t t0 = tracer::nowNs();
        auto w = std::make_unique<W<DecodePipeline>>(mix, o.seed);
        for (size_t k = 0; k < W<DecodePipeline>::kWarmupOps; ++k)
            w->op(r);
        setup_s.push_back(static_cast<double>(tracer::nowNs() - t0) / 1e9);
        digests.push_back(digest(r.results));
        warmup = r;
        kept = std::move(w);
    }

    Run run;
    timedOps(*kept, run, o.seconds);
    kept.reset();

    // Warm-up digest at the alternate thread count, which must match
    // the main thread count's bit for bit.
    ThreadPool::configureGlobal(o.altThreads);
    uint64_t alt_digest = 0;
    {
        W<DecodePipeline> w(mix, o.seed);
        Run r;
        for (size_t k = 0; k < W<DecodePipeline>::kWarmupOps; ++k)
            w.op(r);
        alt_digest = digest(r.results);
    }

    bool same_seed_ok = true;
    for (uint64_t d : digests)
        same_seed_ok = same_seed_ok && d == digests.front();
    const bool threads_ok = alt_digest == digests.front();

    JsonOut j(std::cout);
    j.str("kernel_backend", kernelBackendName(activeKernelBackend()));
    j.field("threads", o.threads);
    j.field("alt_threads", o.altThreads);
    j.list("setup_s", setup_s);
    j.field("warmup_failed", warmup.failed);
    std::ostringstream dg;
    dg << std::hex << digests.front();
    j.str("digest", dg.str());
    j.boolean("digest_same_seed", same_seed_ok);
    j.boolean("digest_threads", threads_ok);
    j.field("peak_rss_mb", run.peakRssAtMarkMb);
    writeRun(j, run);
    return 0;
}

/** Cost of one empty span, measured with tracing on (ns). */
double
spanCostNs()
{
    constexpr int kSpans = 20000;
    tracer::setEnabled(true);
    const int64_t t0 = tracer::nowNs();
    for (int i = 0; i < kSpans; ++i)
        Scope s(SpanKind::Count);
    const int64_t t1 = tracer::nowNs();
    tracer::setEnabled(false);
    tracer::clear();
    return static_cast<double>(t1 - t0) / kSpans;
}

template <template <class> class W>
int
runTraced(const Options &o, const std::vector<Request> &mix)
{
    ThreadPool::configureGlobal(o.threads);
    const double span_ns = spanCostNs();

    W<DecodePipeline> real(mix, o.seed);
    tracer::setEnabled(true);
    W<ReplayPipeline> replay(mix, o.seed);
    tracer::setEnabled(false);

    Run real_run, replay_run;
    int64_t real_ns = 0, replay_ns = 0;
    uint64_t ops = 0, drift = 0;
    auto lockstep = [&] {
        const int64_t a = tracer::nowNs();
        real.op(real_run);
        const int64_t b = tracer::nowNs();
        tracer::setEnabled(true);
        replay.op(replay_run);
        tracer::setEnabled(false);
        const int64_t c = tracer::nowNs();
        real_ns += b - a;
        replay_ns += c - b;
        ++ops;
    };
    const int64_t deadline =
        tracer::nowNs() + static_cast<int64_t>(o.seconds * 1e9);
    while (!real.exhausted() && tracer::nowNs() < deadline)
        lockstep();
    real.close();
    replay.close();
    while (real.busy())
        lockstep();

    const size_t n = std::min(real_run.results.size(),
                              replay_run.results.size());
    drift += std::max(real_run.results.size(), replay_run.results.size()) -
        n;
    for (size_t i = 0; i < n; ++i)
        if (!sameResults(real_run.results[i], replay_run.results[i]))
            ++drift;

    ReplayCounters counters;
    PrefillStats pstats;
    replay.addTotals(counters, pstats);

    const std::vector<SpanRecord> spans = tracer::collect();
    if (!o.spansPath.empty()) {
        std::ofstream os(o.spansPath);
        if (!os)
            fatal("cannot write spans to ", o.spansPath);
        for (const SpanRecord &s : spans)
            os << spanName(s.kind) << ' ' << s.tid << ' ' << s.id << ' '
               << s.parent << ' ' << s.beginNs << ' ' << s.endNs << '\n';
    }

    JsonOut j(std::cout);
    j.str("kernel_backend", kernelBackendName(activeKernelBackend()));
    j.field("threads", o.threads);
    j.field("alt_threads", o.altThreads);
    j.field("ops", ops);
    j.field("real_s", static_cast<double>(real_ns) / 1e9);
    j.field("replay_s", static_cast<double>(replay_ns) / 1e9);
    j.field("span_count", spans.size());
    j.field("span_cost_ns", span_ns);
    j.field("drift", drift);
    j.field("offloads", counters.offloads);
    j.field("offload_sim_us", counters.offloadSimUs);
    j.field("write_tokens", counters.writeTokens);
    j.field("keys_scanned", counters.keysScanned);
    j.field("survivors", counters.survivors);
    j.field("device_mismatches", counters.deviceMismatches);
    j.field("prefill_block_skip_frac", pstats.blockSkipFraction());
    j.field("prefill_attended_frac", pstats.attendedFraction());
    writeRun(j, replay_run);
    j.field("real_failed", real_run.failed);
    return 0;
}

template <template <class> class W>
int
run(const Options &o, const std::vector<Request> &mix)
{
    return o.trace ? runTraced<W>(o, mix) : runUntraced<W>(o, mix);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    longsight::Flags flags(argc, argv);
    Options o;
    o.workload = flags.getString("workload", "");
    o.mixPath = flags.getString("mix", "");
    o.spansPath = flags.getString("spans", "");
    o.seed = static_cast<uint64_t>(flags.getInt("seed", 1));
    o.seconds = flags.getDouble("seconds", 10.0);
    o.threads = static_cast<unsigned>(flags.getInt("threads", 1));
    o.altThreads = static_cast<unsigned>(flags.getInt("alt-threads", 2));
    o.trace = flags.getInt("trace", 0) != 0;
    const auto leftover = flags.unconsumed();
    if (!leftover.empty())
        longsight::fatal("unknown flag --", leftover.front());

    tracer::nowNs(); // start the trace clock
    const std::vector<Request> mix = readMix(o.mixPath);
    if (o.workload == "decode_long")
        return run<DecodeLong>(o, mix);
    if (o.workload == "prompt_sparse")
        return run<PromptSparse>(o, mix);
    if (o.workload == "serve_mixed")
        return run<ServeMixed>(o, mix);
    longsight::fatal("unknown workload '", o.workload, "'");
}
