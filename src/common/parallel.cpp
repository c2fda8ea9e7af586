#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/logging.hpp"

namespace rev
{

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > kMaxThreads)
        fatal("asked for ", requested, " threads; at most ", kMaxThreads,
              " are allowed");
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("REV_BENCH_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > static_cast<long>(kMaxThreads))
            fatal("REV_BENCH_THREADS=", env, " asks for more than ",
                  kMaxThreads, " threads");
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, kMaxThreads);
}

TaskQueue::TaskQueue(unsigned threads) : threads_(resolveThreadCount(threads))
{
    if (threads_ <= 1)
        return;
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

TaskQueue::~TaskQueue()
{
    if (workers_.empty())
        return;
    {
        std::unique_lock<std::mutex> lock(mu_);
        allDone_.wait(lock, [this] { return inFlight_ == 0; });
        stopping_ = true;
    }
    workReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
TaskQueue::recordException()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!firstError_)
        firstError_ = std::current_exception();
}

void
TaskQueue::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        // Single-threaded pool: run inline, but keep wait()'s rethrow
        // contract so callers behave identically either way.
        try {
            task();
        } catch (...) {
            recordException();
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
        ++inFlight_;
    }
    workReady_.notify_one();
}

void
TaskQueue::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
    if (firstError_) {
        std::exception_ptr err = firstError_;
        firstError_ = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void
TaskQueue::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workReady_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and nothing left to do
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            recordException();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(resolveThreadCount(threads), n));
    if (workers <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errMu;
    auto drain = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMu);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t)
        pool.emplace_back(drain);
    drain(); // the calling thread participates
    for (auto &t : pool)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace rev
