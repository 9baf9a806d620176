// ThreadPool / parallel_for: coverage, exception propagation, determinism.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "support/parallel.hpp"

namespace {

using fairbfl::support::parallel_for;
using fairbfl::support::ThreadPool;

TEST(ThreadPool, RunsBodyOnEveryWorker) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4U);
    std::vector<std::atomic<int>> hits(4);
    pool.run([&](unsigned worker) { hits[worker]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DefaultSizeFollowsTheAffinityMaskAndIsNeverZero) {
    // Checked without building a pool of that size: the global pool is
    // the one default-sized pool every process already has.
    const unsigned threads = fairbfl::support::default_thread_count();
    EXPECT_GE(threads, 1U);
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        EXPECT_EQ(threads, static_cast<unsigned>(CPU_COUNT(&set)));
#endif
    EXPECT_EQ(ThreadPool::global().size(), threads);
}

TEST(ThreadPool, SingleThreadPoolRunsOnCaller) {
    ThreadPool pool(1);
    int calls = 0;
    pool.run([&](unsigned worker) {
        EXPECT_EQ(worker, 0U);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ReusableAcrossRuns) {
    ThreadPool pool(3);
    std::atomic<int> total{0};
    for (int i = 0; i < 10; ++i) pool.run([&](unsigned) { total++; });
    EXPECT_EQ(total.load(), 30);
}

TEST(ThreadPool, PropagatesExceptions) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.run([](unsigned worker) {
        if (worker == 0) throw std::runtime_error("boom");
    }),
                 std::runtime_error);
    // The pool must survive the exception.
    std::atomic<int> total{0};
    pool.run([&](unsigned) { total++; });
    EXPECT_EQ(total.load(), 2);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    parallel_for(0, n, [&](std::size_t i) { counts[i]++; }, pool);
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
    ThreadPool pool(2);
    int calls = 0;
    parallel_for(5, 5, [&](std::size_t) { ++calls; }, pool);
    parallel_for(7, 3, [&](std::size_t) { ++calls; }, pool);
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RespectsOffsetRange) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> counts(20);
    parallel_for(5, 15, [&](std::size_t i) { counts[i]++; }, pool);
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_EQ(counts[i].load(), (i >= 5 && i < 15) ? 1 : 0) << i;
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
    // Sum of f(i) must not depend on how iterations map to workers.
    constexpr std::size_t n = 512;
    auto run_with = [&](unsigned threads) {
        ThreadPool pool(threads);
        std::vector<double> out(n);
        parallel_for(0, n, [&](std::size_t i) {
            out[i] = static_cast<double>(i) * 1.5;
        }, pool, /*grain=*/7);
        return std::accumulate(out.begin(), out.end(), 0.0);
    };
    const double serial = run_with(1);
    EXPECT_DOUBLE_EQ(serial, run_with(2));
    EXPECT_DOUBLE_EQ(serial, run_with(8));
}

TEST(ParallelFor, PropagatesBodyException) {
    ThreadPool pool(4);
    EXPECT_THROW(parallel_for(0, 100,
                              [](std::size_t i) {
                                  if (i == 42)
                                      throw std::logic_error("bad index");
                              },
                              pool),
                 std::logic_error);
}

TEST(ParallelChunks, CoversRangeExactlyOnceWithFixedBoundaries) {
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    constexpr std::size_t chunk = 64;
    std::vector<std::atomic<int>> counts(n);
    std::atomic<bool> boundaries_ok{true};
    fairbfl::support::parallel_chunks(
        0, n, chunk,
        [&](std::size_t lo, std::size_t hi) {
            // Boundaries depend only on (begin, chunk), never the worker.
            if (lo % chunk != 0 || (hi != n && hi - lo != chunk))
                boundaries_ok = false;
            for (std::size_t i = lo; i < hi; ++i) counts[i]++;
        },
        pool);
    EXPECT_TRUE(boundaries_ok.load());
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelChunks, SmallRangeRunsAsSingleInlineChunk) {
    ThreadPool pool(4);
    int calls = 0;
    std::size_t seen_lo = 99, seen_hi = 0;
    fairbfl::support::parallel_chunks(
        3, 10, 64,
        [&](std::size_t lo, std::size_t hi) {
            ++calls;
            seen_lo = lo;
            seen_hi = hi;
        },
        pool);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(seen_lo, 3U);
    EXPECT_EQ(seen_hi, 10U);
}

TEST(ParallelChunks, EmptyRangeIsNoop) {
    ThreadPool pool(2);
    int calls = 0;
    fairbfl::support::parallel_chunks(
        5, 5, 8, [&](std::size_t, std::size_t) { ++calls; }, pool);
    EXPECT_EQ(calls, 0);
}

TEST(ParallelChunks, NestedInsidePoolTaskCoversRangeExactlyOnce) {
    // Under the work-stealing scheduler a nested fork fans out to idle
    // workers instead of degrading inline; either way each of the four
    // outer bodies must see its range covered exactly once.
    ThreadPool pool(4);
    std::atomic<int> covered{0};
    pool.run([&](unsigned) {
        fairbfl::support::parallel_chunks(
            0, 100, 10,
            [&](std::size_t lo, std::size_t hi) {
                covered += static_cast<int>(hi - lo);
            },
            pool);
    });
    EXPECT_EQ(covered.load(), 400);
}

}  // namespace
