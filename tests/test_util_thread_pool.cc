/**
 * @file
 * ThreadPool: full index coverage, deterministic contiguous sharding,
 * output identical to a serial loop at every worker count, the caller
 * as worker 0, exception propagation, and reuse across many run()
 * calls.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

using predvfs::util::ThreadPool;

namespace {

/** A cheap index-dependent value both paths must compute. */
std::uint64_t
mix(std::size_t i)
{
    std::uint64_t x = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return x * 0xbf58476d1ce4e5b9ULL;
}

} // namespace

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (const unsigned workers : {0u, 1u, 2u, 4u, 7u}) {
        ThreadPool pool(workers);
        for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                    std::size_t{5}, std::size_t{97}}) {
            std::vector<std::atomic<int>> hits(n);
            pool.run(n, [&](unsigned w, std::size_t i) {
                ASSERT_LT(w, pool.workerSlots());
                hits[i].fetch_add(1);
            });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "workers=" << workers << " n=" << n << " i=" << i;
        }
    }
}

TEST(ThreadPool, ShardsAreContiguousAndDeterministic)
{
    ThreadPool pool(4);
    const std::size_t n = 103;
    std::vector<unsigned> owner(n);
    pool.run(n, [&](unsigned w, std::size_t i) { owner[i] = w; });

    for (std::size_t i = 0; i < n; ++i) {
        const unsigned w = owner[i];
        EXPECT_EQ(i >= w * n / 4 && i < (w + 1) * n / 4, true)
            << "index " << i << " ran on worker " << w;
    }

    // The same (n, workers) must produce the same partition again.
    std::vector<unsigned> owner2(n);
    pool.run(n, [&](unsigned w, std::size_t i) { owner2[i] = w; });
    EXPECT_EQ(owner, owner2);
}

TEST(ThreadPool, OutputIdenticalToSerialAtAnyWorkerCount)
{
    const std::size_t n = 500;
    std::vector<std::uint64_t> serial(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = mix(i);

    for (const unsigned workers : {1u, 2u, 4u, 7u}) {
        ThreadPool pool(workers);
        std::vector<std::uint64_t> parallel(n, 0);
        pool.run(n, [&](unsigned, std::size_t i) {
            parallel[i] = mix(i);
        });
        EXPECT_EQ(parallel, serial) << "workers=" << workers;
    }
}

TEST(ThreadPool, PropagatesShardExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.run(10, [&](unsigned, std::size_t i) {
            if (i == 7)
                throw std::runtime_error("shard failure");
        }),
        std::runtime_error);

    // The pool must stay usable after a failed run.
    std::vector<int> out(4, 0);
    pool.run(4, [&](unsigned, std::size_t i) { out[i] = 1; });
    EXPECT_EQ(out, (std::vector<int>{1, 1, 1, 1}));
}

TEST(ThreadPool, CallerRunsShardZero)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (const unsigned workers : {2u, 3u, 4u}) {
        ThreadPool pool(workers);
        const std::size_t n = 4 * workers + 1;
        std::vector<std::thread::id> ran(n);
        std::vector<unsigned> owner(n);
        pool.run(n, [&](unsigned w, std::size_t i) {
            ran[i] = std::this_thread::get_id();
            owner[i] = w;
        });
        for (std::size_t i = 0; i < n; ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " i=" + std::to_string(i));
            EXPECT_EQ(owner[i] == 0, i < n / workers);
            EXPECT_EQ(ran[i] == caller, owner[i] == 0);
        }
    }
}

TEST(ThreadPool, UsesExactlyWorkerCountThreadsCallerIncluded)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (const unsigned workers : {2u, 4u, 7u}) {
        ThreadPool pool(workers);
        std::mutex mu;
        std::set<std::thread::id> seen;
        // Several runs: the helpers persist, so no run adds a thread.
        for (int round = 0; round < 5; ++round) {
            pool.run(3 * workers, [&](unsigned, std::size_t) {
                std::lock_guard<std::mutex> lock(mu);
                seen.insert(std::this_thread::get_id());
            });
        }
        EXPECT_EQ(seen.size(), workers) << "workers=" << workers;
        EXPECT_EQ(seen.count(caller), 1u) << "workers=" << workers;
    }
}

TEST(ThreadPool, CallerShardExceptionWinsOverLaterWorkers)
{
    ThreadPool pool(3);
    // Item 0 is the caller's, item 2 the last helper's; both throw,
    // and the lowest worker id decides which one run() rethrows.
    try {
        pool.run(3, [&](unsigned, std::size_t i) {
            if (i == 0)
                throw std::runtime_error("caller shard");
            if (i == 2)
                throw std::logic_error("helper shard");
        });
        ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "caller shard");
    } catch (const std::logic_error &e) {
        ADD_FAILURE() << "rethrew the helper's exception: " << e.what();
    }

    // Both failures were collected; the pool stays usable.
    std::vector<int> out(6, 0);
    pool.run(6, [&](unsigned, std::size_t i) { out[i] = 1; });
    EXPECT_EQ(out, std::vector<int>(6, 1));
}

TEST(ThreadPool, SurvivesManyConsecutiveRuns)
{
    ThreadPool pool(3);
    std::uint64_t expect = 0;
    std::vector<std::uint64_t> partial(pool.workerSlots());
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + (round % 17);
        std::fill(partial.begin(), partial.end(), 0);
        pool.run(n, [&](unsigned w, std::size_t i) {
            partial[w] += i + 1;
        });
        std::uint64_t got = 0;
        for (const std::uint64_t p : partial)
            got += p;
        expect = n * (n + 1) / 2;
        ASSERT_EQ(got, expect) << "round " << round;
    }
}

TEST(ThreadPool, InlineModeRunsOnCaller)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.workers(), 0u);
    EXPECT_EQ(pool.workerSlots(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    pool.run(3, [&](unsigned w, std::size_t) {
        EXPECT_EQ(w, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, HardwareWorkersPositive)
{
    EXPECT_GE(ThreadPool::hardwareWorkers(), 1u);
}
