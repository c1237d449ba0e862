/**
 * @file
 * A deterministic fixed-shard thread pool.
 *
 * Parallelism in this codebase must never change results: prepared
 * jobs, trained predictors, and experiment metrics have to be
 * bit-identical at any worker count, or the perf work stops being a
 * pure optimisation. This pool therefore rejects work stealing and
 * dynamic scheduling entirely:
 *
 *  - run(n, fn) splits the index range [0, n) into one contiguous
 *    shard per worker (worker w gets [w*n/W, (w+1)*n/W)), always the
 *    same partition for the same (n, W);
 *  - fn(worker, i) must write only to the i-th output slot (and to
 *    per-worker scratch selected by @p worker); under that contract
 *    the output vector is byte-identical to a serial loop, in order,
 *    regardless of how shard execution interleaves;
 *  - the calling thread is worker 0: it runs shard 0 itself, so a
 *    pool of W workers starts W - 1 threads, and a pool with zero or
 *    one worker runs everything inline with no threads at all.
 *
 * Helpers are persistent: started once in the constructor, woken per
 * run() by a generation counter, joined in the destructor. run() is
 * a full barrier — it returns only after every shard finished — and
 * rethrows the first exception a shard raised (by lowest worker id,
 * so the caller's own shard comes first).
 */

#ifndef PREDVFS_UTIL_THREAD_POOL_HH
#define PREDVFS_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace predvfs {
namespace util {

class ThreadPool
{
  public:
    /** Work shared by one run() call, indexed (worker, item). */
    using Task = std::function<void(unsigned, std::size_t)>;

    /**
     * @param workers Workers, the calling thread included; W >= 2
     *                starts W - 1 helper threads, and 0 and 1 both
     *                mean "inline on the caller" (no threads at all).
     */
    explicit ThreadPool(unsigned workers);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Execute fn(worker, i) for every i in [0, n) and wait for all of
     * it; the calling thread runs worker 0's shard. Deterministic
     * sharding; see the file comment for the output contract fn must
     * follow. Single-flight: one run() at a time per pool.
     */
    void run(std::size_t n, const Task &fn);

    /** @return workers backing this pool, caller included (0 = inline). */
    unsigned workers() const { return numWorkers; }

    /**
     * Worker-id values fn may observe: max(workers, 1). Size
     * per-worker scratch arrays with this.
     */
    unsigned workerSlots() const { return numWorkers ? numWorkers : 1; }

    /** @return the hardware concurrency (at least 1). */
    static unsigned hardwareWorkers();

  private:
    void workerLoop(unsigned w);
    /** Run worker @p w's shard of [0, n), recording its exception. */
    void runShard(unsigned w, std::size_t n, const Task &fn);

    const unsigned numWorkers;

    std::mutex mutex;
    std::condition_variable startCv;
    std::condition_variable doneCv;
    const Task *job = nullptr;
    std::size_t jobSize = 0;
    std::uint64_t generation = 0;
    unsigned finished = 0;  //!< Helpers done with this generation.
    bool stopping = false;
    std::vector<std::exception_ptr> errors;
    std::vector<std::thread> threads;  //!< Helpers 1 .. W-1.
};

} // namespace util
} // namespace predvfs

#endif // PREDVFS_UTIL_THREAD_POOL_HH
