#include "tracer.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench {

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::PipelinePrefill: return "pipeline.prefill";
    case SpanKind::PipelinePrefillChunk: return "pipeline.prefill_chunk";
    case SpanKind::PipelineFlushPrefill: return "pipeline.flush_prefill";
    case SpanKind::PipelineDecodeStep: return "pipeline.decode_step";
    case SpanKind::WorkloadGenerate: return "workload.generate";
    case SpanKind::WorkloadAppend: return "workload.append";
    case SpanKind::WorkloadDraw: return "workload.draw";
    case SpanKind::KvCacheAppend: return "kv_cache.append";
    case SpanKind::DrexWrite: return "drex.write";
    case SpanKind::DrexOffload: return "drex.offload";
    case SpanKind::KernelsScoreSelect: return "kernels.score_select";
    case SpanKind::AttentionCombine: return "attention.combine";
    case SpanKind::AttentionDenseVerify: return "attention.dense_verify";
    case SpanKind::PrefillAdvance: return "prefill_attention.advance";
    case SpanKind::ServeChunk: return "serve.chunk";
    case SpanKind::ServeDecodeBatch: return "serve.decode_batch";
    case SpanKind::ServeQueueWait: return "serve.queue_wait";
    case SpanKind::Count: break;
    }
    return "unknown";
}

namespace {

struct ThreadBuffer
{
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<int64_t> open; //!< stack of open span ids
};

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_nextId{0};
std::mutex g_buffersMu;
// Buffers outlive the threads that filled them: pool threads are
// replaced whenever the thread count changes.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer &
localBuffer()
{
    thread_local ThreadBuffer *buf = nullptr;
    if (!buf) {
        std::lock_guard<std::mutex> lock(g_buffersMu);
        g_buffers.push_back(std::make_unique<ThreadBuffer>());
        buf = g_buffers.back().get();
        buf->tid = static_cast<uint32_t>(g_buffers.size() - 1);
    }
    return *buf;
}

} // namespace

namespace tracer {

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

int64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

int64_t
current()
{
    if (!enabled())
        return -1;
    const ThreadBuffer &buf = localBuffer();
    return buf.open.empty() ? -1 : buf.open.back();
}

void
record(SpanKind kind, int64_t begin_ns, int64_t end_ns, int64_t parent)
{
    if (!enabled())
        return;
    ThreadBuffer &buf = localBuffer();
    SpanRecord r;
    r.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    r.parent = parent;
    r.beginNs = begin_ns;
    r.endNs = end_ns;
    r.tid = buf.tid;
    r.kind = kind;
    buf.spans.push_back(r);
}

std::vector<SpanRecord>
collect()
{
    std::lock_guard<std::mutex> lock(g_buffersMu);
    std::vector<SpanRecord> all;
    for (const auto &buf : g_buffers)
        all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    return all;
}

void
clear()
{
    std::lock_guard<std::mutex> lock(g_buffersMu);
    for (auto &buf : g_buffers)
        buf->spans.clear();
}

} // namespace tracer

Scope::Scope(SpanKind kind)
{
    if (tracer::enabled())
        open(kind, tracer::current());
}

Scope::Scope(SpanKind kind, int64_t parent)
{
    if (tracer::enabled())
        open(kind, parent);
}

void
Scope::open(SpanKind kind, int64_t parent)
{
    kind_ = kind;
    parent_ = parent;
    id_ = g_nextId.fetch_add(1, std::memory_order_relaxed);
    localBuffer().open.push_back(id_);
    begin_ = tracer::nowNs();
}

Scope::~Scope()
{
    if (id_ < 0)
        return;
    const int64_t end = tracer::nowNs();
    ThreadBuffer &buf = localBuffer();
    buf.open.pop_back();
    SpanRecord r;
    r.id = id_;
    r.parent = parent_;
    r.beginNs = begin_;
    r.endNs = end;
    r.tid = buf.tid;
    r.kind = kind_;
    buf.spans.push_back(r);
}

} // namespace perfbench
