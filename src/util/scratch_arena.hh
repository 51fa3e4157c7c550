/**
 * @file
 * Per-thread scratch memory for the decode hot path. The SCF → score →
 * rank pipeline needs several short-lived buffers per (step, layer,
 * head): survivor indices, score tiles, top-k selector buffers,
 * attended-index lists, filter-space queries, softmax probabilities.
 * Allocating them from the global heap on every call dominated the
 * host profile once the scan itself went SIMD; a bump allocator that
 * each thread-pool lane owns makes all of them free after warmup.
 *
 * Model:
 *  - ScratchArena hands out uninitialized, aligned typed spans with a
 *    bump pointer. Allocation is O(1) and never constructs objects —
 *    only trivially copyable/destructible types are allowed.
 *  - ScratchFrame is the RAII unit of use: it records the arena cursor
 *    on entry and rewinds it on exit, so nested users (computeHead
 *    inside a DecodePipeline lane inside a bench loop) compose with
 *    stack discipline. Spans die with their frame; never store one.
 *  - When a request does not fit, the arena grows by chaining an
 *    overflow block (a real heap allocation — this is the warmup
 *    path). The next time the arena is completely rewound it coalesces
 *    to a single block sized to the observed high-water mark, so a
 *    steady-state workload settles to exactly zero heap traffic.
 *  - forThisThread() returns the calling thread's arena (thread_local
 *    storage). ThreadPool lanes are plain threads, so every lane —
 *    including the caller participating in parallelFor — owns one
 *    arena that persists across parallelFor invocations; warmup
 *    happens once per lane, not once per call. Ownership rule: scratch
 *    memory never crosses a lane boundary (hand results to other
 *    threads via per-index slots, as DESIGN.md's parallel layer
 *    already requires).
 */

#ifndef LONGSIGHT_UTIL_SCRATCH_ARENA_HH
#define LONGSIGHT_UTIL_SCRATCH_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace longsight {

/**
 * Growable bump allocator for trivially destructible scratch data.
 */
class ScratchArena
{
  public:
    /** @param initial_bytes starting block size (0 defers the first
     *         block to the first allocation). */
    explicit ScratchArena(size_t initial_bytes = 0);

    ScratchArena(const ScratchArena &) = delete;
    ScratchArena &operator=(const ScratchArena &) = delete;

    /**
     * Allocate n elements of T, aligned to alignof(T) (or 64 bytes for
     * types that ask for more via alignas). Contents are
     * uninitialized. T must be trivially copyable and destructible —
     * the arena never runs constructors or destructors.
     */
    template <class T>
    T *alloc(size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "scratch memory never runs destructors");
        static_assert(std::is_trivially_copyable_v<T>,
                      "scratch memory never runs constructors");
        return static_cast<T *>(
            allocBytes(n * sizeof(T), alignof(T)));
    }

    /** Bytes handed out since the last full rewind. */
    size_t used() const { return used_; }

    /** Largest used() ever observed (what coalescing sizes to). */
    size_t highWater() const { return highWater_; }

    /** Total bytes owned across blocks. */
    size_t capacity() const;

    /** Heap allocations the arena itself performed (growth events). */
    uint64_t growths() const { return growths_; }

    /**
     * The calling thread's arena. Each thread-pool lane (and the main
     * thread) gets its own instance on first use; it lives until the
     * thread exits.
     */
    static ScratchArena &forThisThread();

  private:
    friend class ScratchFrame;

    struct Block
    {
        std::unique_ptr<std::byte[]> mem;
        size_t size = 0;
    };

    /** Cursor state a frame saves and restores. */
    struct Mark
    {
        size_t block;
        size_t offset;
        size_t used;
    };

    void *allocBytes(size_t bytes, size_t align);
    Mark mark() const { return {current_, cursor_, used_}; }
    void rewind(const Mark &m);

    std::vector<Block> blocks_;
    size_t current_ = 0; //!< block being bumped
    size_t cursor_ = 0;  //!< offset into blocks_[current_]
    size_t used_ = 0;
    size_t highWater_ = 0;
    uint64_t growths_ = 0;
};

/**
 * RAII scope over a ScratchArena: every span allocated inside the
 * frame is reclaimed (cursor rewind, no destructors) when the frame
 * dies. Frames must nest like stack frames.
 */
class ScratchFrame
{
  public:
    explicit ScratchFrame(ScratchArena &arena)
        : arena_(arena), mark_(arena.mark())
    {
    }

    ~ScratchFrame() { arena_.rewind(mark_); }

    ScratchFrame(const ScratchFrame &) = delete;
    ScratchFrame &operator=(const ScratchFrame &) = delete;

    ScratchArena &arena() { return arena_; }

    /** Shorthand for arena().alloc<T>(n) inside this frame. */
    template <class T>
    T *alloc(size_t n)
    {
        return arena_.alloc<T>(n);
    }

  private:
    ScratchArena &arena_;
    ScratchArena::Mark mark_;
};

} // namespace longsight

#endif // LONGSIGHT_UTIL_SCRATCH_ARENA_HH
