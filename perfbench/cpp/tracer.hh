/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Spans are
 * kept in per-thread buffers (owned by the recorder, so they outlive
 * pool threads) and collected once when the run ends. When tracing is
 * disabled a Scope costs one relaxed atomic load.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <vector>

namespace perfbench {

/** Layer boundary a span wraps: one public LongSight call each. */
enum class SpanKind : uint8_t
{
    PipelinePrefill,      //!< DecodePipeline::prefill
    PipelinePrefillChunk, //!< DecodePipeline::prefillChunk
    PipelineFlushPrefill, //!< DecodePipeline::flushPrefillAttention
    PipelineDecodeStep,   //!< DecodePipeline::decodeStep
    WorkloadGenerate,     //!< HeadWorkload::generate
    WorkloadAppend,       //!< HeadWorkload::appendToken
    WorkloadDraw,         //!< HeadWorkload::drawQuery + toFilterSpace
    KvCacheAppend,        //!< KvCache::append / appendAll
    DrexWrite,            //!< DrexDevice::writeContext
    DrexOffload,          //!< DrexDevice::submit + processAll
    KernelsScoreSelect,   //!< packSigns + batchScoreSelectMultiSpans
    AttentionCombine,     //!< subsetAttentionInto
    AttentionDenseVerify, //!< denseAttentionInto + retained mass
    PrefillAdvance,       //!< BlockSparsePrefill::advance
    ServeChunk,           //!< one serving iteration's prefillChunk
    ServeDecodeBatch,     //!< one serving iteration's decodeStepBatch
    ServeQueueWait,       //!< a request's arrival -> first call
    Count
};

const char *spanName(SpanKind kind);

struct SpanRecord
{
    int64_t id = 0;
    int64_t parent = -1; //!< enclosing span id, -1 for a root
    int64_t beginNs = 0;
    int64_t endNs = 0;
    uint32_t tid = 0; //!< recorder-assigned thread lane
    SpanKind kind = SpanKind::Count;
};

namespace tracer {

void setEnabled(bool on);
bool enabled();

/** Monotonic nanoseconds since the first call in this process. */
int64_t nowNs();

/** Innermost span open on the calling thread, or -1. */
int64_t current();

/** Record a span whose interval was measured by the caller. */
void record(SpanKind kind, int64_t begin_ns, int64_t end_ns,
            int64_t parent = -1);

/** Every span recorded so far, all threads. */
std::vector<SpanRecord> collect();

/** Drop every recorded span. */
void clear();

} // namespace tracer

/** RAII span; parent defaults to the calling thread's open span. */
class Scope
{
  public:
    explicit Scope(SpanKind kind);
    Scope(SpanKind kind, int64_t parent);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** This span's id (-1 when tracing is off). */
    int64_t id() const { return id_; }

  private:
    void open(SpanKind kind, int64_t parent);

    int64_t id_ = -1;
    int64_t parent_ = -1;
    int64_t begin_ = 0;
    SpanKind kind_ = SpanKind::Count;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
