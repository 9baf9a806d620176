#pragma once
// Minimal work-sharing primitives for the simulator.
//
// The FL clients of a round are embarrassingly parallel (the paper's
// Procedure I executes "in parallel on each client"), so the hot loop is a
// static-chunked parallel_for over client indices, in the spirit of an
// OpenMP `parallel for schedule(static)`.  Determinism is preserved because
// every iteration draws randomness only from its own Rng stream.

#include <cstddef>
#include <functional>

namespace fairbfl::support {

/// Threads a default-sized pool (ThreadPool(0), ThreadPool::global())
/// gets: the CPUs in this process's affinity mask where the platform
/// reports one (Linux sched_getaffinity), else
/// std::thread::hardware_concurrency().  Never 0.
[[nodiscard]] unsigned default_thread_count() noexcept;

/// A fixed-size pool of worker threads with a fork/join `run` primitive on
/// top of a work-stealing scheduler.  Construction spawns the workers
/// once; destruction joins them.  Each worker owns a deque: it pushes and
/// pops its own work LIFO (depth-first, cache-warm) while idle workers
/// steal FIFO from the other end, so a fork made from *inside* a pool task
/// -- nested parallelism -- fans out to whichever workers are free instead
/// of degrading to the calling thread.
class ThreadPool {
public:
    /// `threads == 0` selects default_thread_count().
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] unsigned size() const noexcept { return n_threads_; }

    /// Forks body(i) for every index i in [0, size()) -- the caller
    /// executes body(0) itself -- and joins, returning when all complete.
    /// Exceptions thrown by `body` are rethrown on the caller (first one
    /// wins).
    ///
    /// Safe under concurrency: concurrent external callers' forks simply
    /// interleave in the deques, and a call made from inside a pool task
    /// (a core::run_suite worker fanning out an inner parallel_for, or a
    /// task of *another* pool) enqueues real subtasks that idle workers
    /// steal -- no inline degradation, no deadlock: while joining, the
    /// forking thread executes pending tasks itself instead of blocking,
    /// so every wait makes progress.
    ///
    /// Contract: each index is invoked exactly once, but index->thread
    /// placement is scheduling-dependent (a single thread may execute
    /// several indices).  Bodies must therefore be index-agnostic -- pull
    /// work dynamically (as parallel_for does) rather than statically
    /// partitioning by worker index -- and must not rely on thread
    /// identity for mutual exclusion.
    void run(const std::function<void(unsigned)>& body);

    /// Shared process-wide pool (lazily constructed).
    static ThreadPool& global();

private:
    struct Impl;
    Impl* impl_;
    unsigned n_threads_;
};

/// Statically-chunked parallel loop over [begin, end).  `body(i)` must be
/// safe to invoke concurrently for distinct i.  Falls back to a serial loop
/// when the range is small or the pool has a single worker.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool& pool = ThreadPool::global(),
                  std::size_t grain = 1);

/// Range-chunked variant for fine-grained elementwise work (the vecmath
/// kernels): splits [begin, end) into contiguous chunks of at most `chunk`
/// elements and runs body(chunk_begin, chunk_end) across the pool -- one
/// std::function invocation per chunk instead of per index.  Ranges no
/// larger than one chunk (and single-worker pools) run as a single inline
/// body(begin, end) call.  Kernels whose per-element result is independent
/// of the chunk boundaries are therefore deterministic under any thread
/// count.
void parallel_chunks(std::size_t begin, std::size_t end, std::size_t chunk,
                     const std::function<void(std::size_t, std::size_t)>& body,
                     ThreadPool& pool = ThreadPool::global());

}  // namespace fairbfl::support
