/**
 * @file
 * Minimal worker-pool / parallel-for primitives used by the benchmark
 * sweep engine (and any future batch driver). Design constraints:
 *
 *  - Deterministic callers: work is identified by index, results are
 *    written to caller-owned slots, so output never depends on
 *    completion order.
 *  - Exception safety: the first exception thrown by any task is
 *    captured and rethrown on the submitting thread from wait() /
 *    parallelFor(); remaining queued tasks still drain.
 *  - Degenerate cases stay serial: a pool asked for one thread (or a
 *    parallelFor over <= 1 item) runs inline on the calling thread, so
 *    single-threaded behaviour is exactly the pre-pool code path.
 */

#ifndef REV_COMMON_PARALLEL_HPP
#define REV_COMMON_PARALLEL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rev
{

/**
 * The most OS threads one pool may start. Every thread-count flag is
 * parsed against it (parseCount in common/cli.hpp), so a typo such as
 * `--threads 100000` is a usage error instead of 100k threads.
 */
inline constexpr unsigned kMaxThreads = 256;

/**
 * Resolve a thread-count request: @p requested if nonzero, otherwise the
 * REV_BENCH_THREADS environment variable if set and positive, otherwise
 * std::thread::hardware_concurrency() (minimum 1, capped at kMaxThreads).
 * A request or an environment value above kMaxThreads throws FatalError
 * before any thread starts.
 */
unsigned resolveThreadCount(unsigned requested);

/**
 * A fixed-size pool of worker threads draining a FIFO task queue.
 *
 * With threads == 1 no worker threads are spawned at all: submit() runs
 * the task inline, which keeps single-threaded runs bit-for-bit
 * identical to code that never heard of the pool (same stack, same
 * ordering, no synchronization).
 */
class TaskQueue
{
  public:
    /** @param threads worker count; 0 resolves via resolveThreadCount(). */
    explicit TaskQueue(unsigned threads = 0);

    /** Drains outstanding work (swallowing task exceptions) and joins. */
    ~TaskQueue();

    TaskQueue(const TaskQueue &) = delete;
    TaskQueue &operator=(const TaskQueue &) = delete;

    /** Enqueue @p task. Runs inline when the pool is single-threaded. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. Rethrows the first
     * exception any task threw since the last wait().
     */
    void wait();

    unsigned threadCount() const { return threads_; }

  private:
    void workerLoop();
    void recordException();

    unsigned threads_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0; ///< queued + currently executing
    bool stopping_ = false;
    std::exception_ptr firstError_; ///< guarded by mu_
};

/**
 * Run fn(i) for every i in [0, n) across @p threads workers (0 = auto,
 * see resolveThreadCount). Blocks until all iterations finish; rethrows
 * the first exception. Iterations are claimed dynamically (atomic
 * counter), so long and short items mix without load imbalance.
 */
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

} // namespace rev

#endif // REV_COMMON_PARALLEL_HPP
