/**
 * @file
 * Layer replay of DecodePipeline for the traced run. DecodePipeline's
 * phases are private, so this class rebuilds one request's decode
 * loop from the same public calls, in the same order and on the same
 * inputs (HeadWorkload, KvCache/KvBlockPool, DrexDevice,
 * BlockSparsePrefill, the span kernels and the attention primitives),
 * with a span around each call. Its PipelineStepResults are required
 * to equal DecodePipeline's bit for bit, which is what catches drift
 * when decode_pipeline.cc changes.
 */

#ifndef PERFBENCH_REPLAY_PIPELINE_HH
#define PERFBENCH_REPLAY_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/decode_pipeline.hh"

namespace perfbench {

/** Work counted inside the replay (no counterpart in the pipeline). */
struct ReplayCounters
{
    uint64_t offloads = 0;
    double offloadSimUs = 0.0;   //!< simulated device time, summed
    uint64_t writeTokens = 0;    //!< tokens shipped via writeContext
    uint64_t keysScanned = 0;    //!< query x key pairs scanned (verify A)
    uint64_t survivors = 0;      //!< of those, past the SCF threshold
    uint64_t deviceMismatches = 0; //!< device top-k != software top-k

    void merge(const ReplayCounters &o);
};

class ReplayPipeline
{
  public:
    ReplayPipeline(const longsight::PipelineConfig &cfg,
                   longsight::DrexDevice &device, uint32_t uid);

    void prefill(size_t n);
    void prefillChunk(size_t n);
    void flushPrefillAttention();
    longsight::PipelineStepResult decodeStep();

    /** Same results as DecodePipeline::decodeStepBatch: each request
     *  replays its own step in batch order. */
    static void decodeStepBatch(
        const std::vector<ReplayPipeline *> &batch,
        std::vector<longsight::PipelineStepResult> &results);

    size_t contextLength() const;
    longsight::KvBlockPool *blockPool() { return pool_.get(); }
    longsight::PrefillStats prefillAttentionStats() const;
    const ReplayCounters &counters() const { return counters_; }

  private:
    longsight::KvCache &cache(uint32_t layer, uint32_t head)
    {
        return *caches_[layer * cfg_.numKvHeads + head];
    }
    void advancePrefillAttention(bool flush);
    void flushEligibleGroups();
    void appendOneToken(int64_t parent);
    bool offloadLayer(uint32_t layer, longsight::PipelineStepResult &result,
                      std::vector<longsight::AttentionResponse> &responses);
    void combineHead(uint32_t layer, uint32_t head, bool offload,
                     const std::vector<longsight::AttentionResponse> &resp,
                     int64_t parent, ReplayCounters &counters);

    longsight::PipelineConfig cfg_;
    longsight::DrexDevice &device_;
    uint32_t uid_;
    uint32_t group_;
    std::vector<longsight::HeadWorkload> workloads_;
    std::unique_ptr<longsight::KvBlockPool> pool_;
    std::vector<std::unique_ptr<longsight::KvCache>> caches_;
    size_t flushed_ = 0;
    std::vector<std::unique_ptr<longsight::BlockSparsePrefill>> prefillAttn_;
    std::vector<longsight::Matrix> prefillOut_;
    bool prefillFrozen_ = false;

    std::vector<longsight::Matrix> queries_;       //!< per KV head
    std::vector<longsight::Matrix> filterQueries_; //!< per KV head
    std::vector<double> laneMass_;
    std::vector<uint8_t> laneMatched_;
    std::vector<ReplayCounters> headCounters_; //!< per KV head, merged
    ReplayCounters counters_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_PIPELINE_HH
