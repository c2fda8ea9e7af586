#include "common/parallel.hpp"

#include "common/logging.hpp"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rev
{
namespace
{

TEST(Parallel, ParallelForVisitsEveryIndexOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    parallelFor(n, 4, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ParallelForSingleThreadRunsInOrder)
{
    std::vector<std::size_t> order;
    parallelFor(16, 1, [&](std::size_t i) { order.push_back(i); });
    std::vector<std::size_t> expect(16);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(Parallel, ParallelForZeroItemsIsANoop)
{
    bool ran = false;
    parallelFor(0, 4, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(Parallel, ParallelForRethrowsFirstException)
{
    EXPECT_THROW(parallelFor(64, 4,
                             [](std::size_t i) {
                                 if (i == 13)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(Parallel, ParallelForExceptionStillCompletesOtherItems)
{
    std::vector<std::atomic<int>> visits(64);
    try {
        parallelFor(64, 4, [&](std::size_t i) {
            if (i == 5)
                throw std::runtime_error("boom");
            ++visits[i];
        });
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error &) {
    }
    int total = 0;
    for (auto &v : visits)
        total += v.load();
    EXPECT_EQ(total, 63); // every index except the thrower
}

TEST(TaskQueue, DrainsSubmittedTasks)
{
    std::atomic<int> count{0};
    TaskQueue q(3);
    EXPECT_EQ(q.threadCount(), 3u);
    for (int i = 0; i < 100; ++i)
        q.submit([&] { ++count; });
    q.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(TaskQueue, SingleThreadedRunsInline)
{
    TaskQueue q(1);
    std::vector<int> order;
    q.submit([&] { order.push_back(1); });
    order.push_back(2); // inline submit must have completed already
    q.wait();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TaskQueue, WaitRethrowsTaskException)
{
    TaskQueue q(2);
    q.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(q.wait(), std::runtime_error);
    // The error is consumed: the queue is reusable afterwards.
    std::atomic<int> count{0};
    q.submit([&] { ++count; });
    q.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(Parallel, ResolveThreadCountPrefersExplicitRequest)
{
    EXPECT_EQ(resolveThreadCount(7), 7u);
}

TEST(Parallel, ResolveThreadCountReadsEnv)
{
    ::setenv("REV_BENCH_THREADS", "5", 1);
    EXPECT_EQ(resolveThreadCount(0), 5u);
    ::setenv("REV_BENCH_THREADS", "0", 1); // invalid: fall through to hw
    EXPECT_GE(resolveThreadCount(0), 1u);
    ::unsetenv("REV_BENCH_THREADS");
    EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(Parallel, ResolveThreadCountRejectsCountsAboveTheBound)
{
    // Resolving starts no thread, so the bound is checked without ever
    // asking the OS for a huge count.
    EXPECT_EQ(resolveThreadCount(kMaxThreads), kMaxThreads);
    EXPECT_THROW(resolveThreadCount(kMaxThreads + 1), FatalError);
    ::setenv("REV_BENCH_THREADS", std::to_string(kMaxThreads).c_str(), 1);
    EXPECT_EQ(resolveThreadCount(0), kMaxThreads);
    ::setenv("REV_BENCH_THREADS", std::to_string(kMaxThreads + 1).c_str(), 1);
    EXPECT_THROW(resolveThreadCount(0), FatalError);
    ::unsetenv("REV_BENCH_THREADS");
}

} // namespace
} // namespace rev
