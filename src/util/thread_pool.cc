#include "util/thread_pool.hh"

namespace predvfs {
namespace util {

ThreadPool::ThreadPool(unsigned workers)
    : numWorkers(workers <= 1 ? 0 : workers)
{
    if (numWorkers == 0)
        return;
    errors.resize(numWorkers);
    threads.reserve(numWorkers - 1);
    for (unsigned w = 1; w < numWorkers; ++w)
        threads.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    if (numWorkers == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    startCv.notify_all();
    for (std::thread &t : threads)
        t.join();
}

void
ThreadPool::runShard(unsigned w, std::size_t n, const Task &fn)
{
    // Contiguous shard: always the same slice for the same (n, W).
    const std::size_t begin = w * n / numWorkers;
    const std::size_t end = (w + 1) * n / numWorkers;
    try {
        for (std::size_t i = begin; i < end; ++i)
            fn(w, i);
    } catch (...) {
        errors[w] = std::current_exception();
    }
}

void
ThreadPool::workerLoop(unsigned w)
{
    std::uint64_t seen = 0;
    while (true) {
        const Task *fn = nullptr;
        std::size_t n = 0;
        {
            std::unique_lock<std::mutex> lock(mutex);
            startCv.wait(lock, [&] {
                return stopping || generation != seen;
            });
            if (stopping)
                return;
            seen = generation;
            fn = job;
            n = jobSize;
        }

        runShard(w, n, *fn);

        {
            std::lock_guard<std::mutex> lock(mutex);
            ++finished;
        }
        doneCv.notify_one();
    }
}

void
ThreadPool::run(std::size_t n, const Task &fn)
{
    if (numWorkers == 0 || n == 0) {
        for (std::size_t i = 0; i < n; ++i)
            fn(0, i);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex);
        job = &fn;
        jobSize = n;
        finished = 0;
        for (auto &e : errors)
            e = nullptr;
        ++generation;
    }
    startCv.notify_all();

    // The caller is worker 0: it works instead of sleeping through
    // its shard, so a two-worker run wakes one thread, not two.
    runShard(0, n, fn);

    {
        std::unique_lock<std::mutex> lock(mutex);
        doneCv.wait(lock, [&] { return finished == numWorkers - 1; });
        job = nullptr;
    }

    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

unsigned
ThreadPool::hardwareWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace util
} // namespace predvfs
