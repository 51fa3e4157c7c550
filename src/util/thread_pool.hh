/**
 * @file
 * Host-side parallel execution layer: a fixed-size worker pool with a
 * parallelFor(begin, end, fn) helper over an index range.
 *
 * The simulator's hot loops (layer x KV-head groups in the decode
 * pipeline, query heads in multi-head attention, per-package NMAs in
 * the DCC) are embarrassingly parallel: every index owns its state and
 * results are merged in a fixed order afterwards. parallelFor matches
 * that shape exactly — it makes no ordering promise *during* the loop,
 * so callers must write results into per-index slots and do any
 * order-sensitive reduction serially after it returns. Used that way,
 * outputs are bit-identical for every thread count.
 *
 * Semantics:
 *  - A pool of `threads` lanes total; the calling thread is one of
 *    them, so `ThreadPool(1)` spawns no workers and parallelFor
 *    degenerates to the exact serial loop.
 *  - Exceptions thrown by `fn` stop the loop early; the first one is
 *    rethrown on the calling thread. The pool stays usable.
 *  - Nested parallelFor calls (from inside a worker) run serially
 *    inline rather than deadlocking on the shared workers.
 *  - ThreadPool::global() is the process-wide pool the library's hot
 *    paths use; configureGlobal(n) (re)builds it, which is how a
 *    `--threads N` flag takes effect.
 */

#ifndef LONGSIGHT_UTIL_THREAD_POOL_HH
#define LONGSIGHT_UTIL_THREAD_POOL_HH

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hh"
#include "util/sync.hh"

namespace longsight {

/** Most lanes a `--threads N` flag may ask for: above any host this
 *  simulator targets, and low enough that a mistyped count cannot
 *  start a runaway number of workers. */
inline constexpr unsigned kMaxFlagThreads = 1024;

/**
 * Fixed-size worker pool with an index-range parallel-for helper.
 */
class ThreadPool
{
  public:
    /**
     * @param threads total execution lanes including the caller;
     *        0 means hardwareThreads(), 1 means fully serial.
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total lanes (workers + the calling thread). */
    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Run fn(i) for every i in [begin, end), distributed over the
     * pool. Blocks until every index completed (or the loop aborted on
     * an exception, which is rethrown here).
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &fn);

    /**
     * parallelFor for the allocation-free hot paths: wraps `fn` in a
     * single-pointer closure so the std::function fits its small-object
     * buffer and no heap allocation happens at the call site. Use this
     * for lambdas with large capture lists inside decode-step loops;
     * semantics are identical to parallelFor.
     */
    template <class Fn>
    void parallelForEach(size_t begin, size_t end, Fn &&fn)
    {
        // Dispatch shim, exempt from contract traversal: the wrapper
        // std::function is a single pointer (small-object buffer, no
        // heap), the pool machinery below blocks by design, and hot
        // loop BODIES carry their own annotations (the walk cannot see
        // through the type-erased dispatch anyway).
        LS_CONTRACT_EXEMPT();
        Fn *body = &fn;
        const std::function<void(size_t)> wrapped =
            [body](size_t i) { (*body)(i); };
        parallelFor(begin, end, wrapped);
    }

    /** std::thread::hardware_concurrency with a sane floor of 1. */
    static unsigned hardwareThreads();

    /** The process-wide pool used by the library's hot paths. */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of `threads` lanes (0 =
     * hardwareThreads()). Callers must not be inside a parallelFor on
     * the old pool. This is what a `--threads N` flag should call.
     */
    static void configureGlobal(unsigned threads);

  private:
    struct Job;

    void workerLoop();

    /** Pull indices from the job until it is exhausted. */
    static void runIndices(Job &job);

    std::vector<std::thread> workers_;
    Mutex mu_;
    CondVar cv_;
    // FIFO of outstanding jobs. A vector, not a deque: the queue depth
    // is the nesting level of concurrent parallelFor calls (almost
    // always 1), erase-from-front is O(depth), and a vector's capacity
    // persists so steady-state queue traffic performs no heap
    // allocations (deque node churn would).
    std::vector<Job *> queue_ LS_GUARDED_BY(mu_);
    bool stop_ LS_GUARDED_BY(mu_) = false;
};

} // namespace longsight

#endif // LONGSIGHT_UTIL_THREAD_POOL_HH
