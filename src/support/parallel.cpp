#include "support/parallel.hpp"

#include <atomic>
#include <deque>
#include <exception>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "support/sync.hpp"

namespace fairbfl::support {

// Lock hierarchy (checked by the annotations below, documented in
// docs/ARCHITECTURE.md):
//
//   queue mutexes, error_mutex, sleep_mutex are all *leaf* locks -- no
//   thread ever holds two pool locks at once.  push_tasks releases the
//   queue lock before touching sleep_mutex (the scoped block), execute
//   releases error_mutex before the last-task wakeup takes sleep_mutex,
//   and pop_own/steal hold exactly one queue lock at a time.  The
//   EXCLUDES(sleep_mutex) contracts make reentering the sleep protocol
//   with the lock already held (the one nesting that could deadlock on a
//   condvar wait) a compile error under clang.

struct ThreadPool::Impl {
    /// One fork/join cycle: the caller's body plus the join bookkeeping.
    /// Stack-allocated in run(); tasks never touch it after their
    /// remaining-decrement, so the caller may destroy it as soon as the
    /// count hits zero.
    struct Job {
        const std::function<void(unsigned)>* body = nullptr;
        std::atomic<unsigned> remaining{0};
        Mutex error_mutex;
        std::exception_ptr error GUARDED_BY(error_mutex);
    };

    struct Task {
        Job* job = nullptr;
        unsigned index = 0;
    };

    /// Per-worker deque: the owner pushes/pops LIFO at the back
    /// (depth-first, cache-warm for nested forks); thieves take FIFO from
    /// the front.  Slot 0 is the shared inbox for threads that are not
    /// workers of this pool (external run() callers, cross-pool tasks).
    struct WorkQueue {
        Mutex mutex;
        std::deque<Task> tasks GUARDED_BY(mutex);
    };

    std::vector<WorkQueue> queues;
    std::vector<std::thread> workers;

    /// Sleep/wake coordination.  `pending` counts tasks sitting in queues
    /// (not yet claimed); notifications happen under `sleep_mutex` so a
    /// waiter's predicate check cannot race a push into a lost wakeup.
    Mutex sleep_mutex;
    CondVar cv;
    std::atomic<std::size_t> pending{0};
    bool shutting_down GUARDED_BY(sleep_mutex) = false;

    explicit Impl(unsigned n) : queues(n) {}

    void push_tasks(std::size_t queue_index, Job& job, unsigned first_index,
                    unsigned count) EXCLUDES(sleep_mutex) {
        {
            WorkQueue& q = queues[queue_index];
            MutexLock lock(q.mutex);
            for (unsigned k = 0; k < count; ++k)
                q.tasks.push_back(Task{&job, first_index + k});
        }
        pending.fetch_add(count);
        MutexLock lock(sleep_mutex);
        cv.notify_all();
    }

    bool pop_own(std::size_t self, Task& out) {
        WorkQueue& q = queues[self];
        MutexLock lock(q.mutex);
        if (q.tasks.empty()) return false;
        out = q.tasks.back();
        q.tasks.pop_back();
        pending.fetch_sub(1);
        return true;
    }

    bool steal(std::size_t self, Task& out) {
        const std::size_t n = queues.size();
        for (std::size_t offset = 1; offset <= n; ++offset) {
            WorkQueue& q = queues[(self + offset) % n];
            MutexLock lock(q.mutex);
            if (q.tasks.empty()) continue;
            out = q.tasks.front();
            q.tasks.pop_front();
            pending.fetch_sub(1);
            return true;
        }
        return false;
    }

    void execute(const Task& task) EXCLUDES(sleep_mutex) {
        try {
            (*task.job->body)(task.index);
        } catch (...) {
            MutexLock lock(task.job->error_mutex);
            if (!task.job->error) task.job->error = std::current_exception();
        }
        if (task.job->remaining.fetch_sub(1) == 1) {
            // Last task: wake any joiner.  Touch only pool state from here
            // on -- the joiner may already be destroying the job.
            MutexLock lock(sleep_mutex);
            cv.notify_all();
        }
    }

    /// Claims a task with this thread's preferred order: own deque first
    /// when the thread is one of our workers, otherwise straight to
    /// stealing (external threads scan from the inbox up).
    bool claim(Task& out);

    /// Runs tasks until `job` completes, sleeping only when there is
    /// nothing anywhere to help with -- the no-deadlock invariant: a
    /// joining thread never blocks while runnable work exists.
    void join(Job& job) EXCLUDES(sleep_mutex) {
        while (job.remaining.load() > 0) {
            Task task;
            if (claim(task)) {
                execute(task);
                continue;
            }
            MutexLock lock(sleep_mutex);
            while (job.remaining.load() != 0 && pending.load() == 0)
                cv.wait(sleep_mutex);
        }
    }

    void worker_loop(unsigned index) EXCLUDES(sleep_mutex);

    /// Which pool (if any) the current thread belongs to, and its queue
    /// slot.  Lets nested forks target the owning worker's deque and
    /// cross-pool calls fall back to the inbox.
    struct WorkerId {
        Impl* impl = nullptr;
        std::size_t queue_index = 0;
    };
    static thread_local WorkerId tl_worker;
};

thread_local ThreadPool::Impl::WorkerId ThreadPool::Impl::tl_worker;

bool ThreadPool::Impl::claim(Task& out) {
    if (tl_worker.impl == this)
        return pop_own(tl_worker.queue_index, out) ||
               steal(tl_worker.queue_index, out);
    return steal(queues.size() - 1, out);  // scan starting at the inbox (0)
}

void ThreadPool::Impl::worker_loop(unsigned index) {
    tl_worker = WorkerId{this, index};
    for (;;) {
        Task task;
        if (pop_own(index, task) || steal(index, task)) {
            execute(task);
            continue;
        }
        MutexLock lock(sleep_mutex);
        if (shutting_down) return;
        while (!shutting_down && pending.load() == 0) cv.wait(sleep_mutex);
        if (shutting_down) return;
    }
}

unsigned default_thread_count() noexcept {
#if defined(__linux__)
    // The affinity mask is what `taskset` and container CPU sets restrict;
    // hardware_concurrency() counts every CPU of the machine.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int count = CPU_COUNT(&set);
        if (count > 0) return static_cast<unsigned>(count);
    }
#endif
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

ThreadPool::ThreadPool(unsigned threads) {
    if (threads == 0) threads = default_thread_count();
    n_threads_ = threads;
    impl_ = new Impl(threads);
    // Queue 0 is the external inbox; workers own queues 1..n-1.
    impl_->workers.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i) {
        impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(impl_->sleep_mutex);
        impl_->shutting_down = true;
    }
    impl_->cv.notify_all();
    for (auto& t : impl_->workers) t.join();
    delete impl_;
}

void ThreadPool::run(const std::function<void(unsigned)>& body) {
    if (n_threads_ <= 1) {
        body(0);
        return;
    }

    Impl::Job job;
    job.body = &body;
    job.remaining.store(n_threads_ - 1);
    // Fork indices 1..n-1 as stealable tasks; the caller is index 0.  A
    // worker forks into its own deque (nested parallelism fans out to idle
    // workers); any other thread drops the tasks into the shared inbox.
    const std::size_t target = Impl::tl_worker.impl == impl_
                                   ? Impl::tl_worker.queue_index
                                   : 0;
    impl_->push_tasks(target, job, 1, n_threads_ - 1);

    std::exception_ptr caller_error;
    try {
        body(0);
    } catch (...) {
        caller_error = std::current_exception();
    }

    impl_->join(job);
    if (!caller_error) {
        // join() observed remaining == 0, so the store already
        // happened-before this read; the (uncontended, once-per-fork) lock
        // is taken so the GUARDED_BY contract holds by construction rather
        // than by the release-ordering argument.
        MutexLock lock(job.error_mutex);
        caller_error = job.error;
    }
    if (caller_error) std::rethrow_exception(caller_error);
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool;
    return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool& pool, std::size_t grain) {
    if (begin >= end) return;
    const std::size_t count = end - begin;
    if (pool.size() <= 1 || count <= grain) {
        for (std::size_t i = begin; i < end; ++i) body(i);
        return;
    }
    std::atomic<std::size_t> next{begin};
    // Dynamic chunking by `grain`; iteration->thread mapping does not affect
    // results because iterations are independent.
    pool.run([&](unsigned) {
        for (;;) {
            const std::size_t chunk = next.fetch_add(grain);
            if (chunk >= end) return;
            const std::size_t stop = std::min(end, chunk + grain);
            for (std::size_t i = chunk; i < stop; ++i) body(i);
        }
    });
}

void parallel_chunks(std::size_t begin, std::size_t end, std::size_t chunk,
                     const std::function<void(std::size_t, std::size_t)>& body,
                     ThreadPool& pool) {
    if (begin >= end) return;
    if (chunk == 0) chunk = 1;
    if (pool.size() <= 1 || end - begin <= chunk) {
        body(begin, end);
        return;
    }
    // Dynamic chunk pull, like parallel_for: the chunk boundaries depend
    // only on (begin, chunk), never on which worker claims them.
    std::atomic<std::size_t> next{begin};
    pool.run([&](unsigned) {
        for (;;) {
            const std::size_t lo = next.fetch_add(chunk);
            if (lo >= end) return;
            body(lo, std::min(end, lo + chunk));
        }
    });
}

}  // namespace fairbfl::support
