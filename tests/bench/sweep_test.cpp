/**
 * @file
 * Tier-1 guarantees of the parallel sweep engine: any thread count
 * produces results identical to the serial run, and the options-driven
 * API behaves (subset selection, env thread override). The serial and
 * parallel reference sweeps are computed once and shared across tests —
 * each sweep costs real simulation time.
 */

#include "bench/suite.hpp"
#include "bench/sweep_runner.hpp"

#include <cstdlib>

#include <gtest/gtest.h>

namespace rev::bench
{
namespace
{

/** Small but REV-exercising budget so the suite stays fast. */
SweepOptions
tinyOptions(unsigned threads)
{
    SweepOptions opts = SweepOptions::quick();
    opts.instrBudget = 20'000;
    opts.threads = threads;
    opts.progress = false;
    return opts;
}

const Sweep &
serialTiny()
{
    static const Sweep s = runSweep(tinyOptions(1));
    return s;
}

const Sweep &
parallelTiny()
{
    static const Sweep s = runSweep(tinyOptions(4));
    return s;
}

TEST(SweepRunner, ParallelIdenticalToSerial)
{
    ASSERT_EQ(serialTiny().benchmarks, parallelTiny().benchmarks);
    ASSERT_EQ(serialTiny().benchmarks.size(), 3u);
    // operator== compares every field of every run and static record,
    // doubles included — bit-identical, not merely close.
    EXPECT_TRUE(serialTiny() == parallelTiny());
}

TEST(SweepRunner, RerunIsDeterministic)
{
    EXPECT_TRUE(runSweep(tinyOptions(4)) == parallelTiny());
}

TEST(SweepRunner, SweepShapeIsComplete)
{
    const Sweep &s = parallelTiny();
    for (const auto &b : s.benchmarks) {
        ASSERT_TRUE(s.statics.count(b)) << b;
        EXPECT_GT(s.statics.at(b).numBlocks, 0u) << b;
        EXPECT_GT(s.statics.at(b).tableBytesFull, 0u) << b;
        for (Config c : kAllConfigs) {
            ASSERT_TRUE(s.runs.count({b, c}))
                << b << '/' << configName(c);
            const RunNumbers &r = s.at(b, c);
            EXPECT_GT(r.instrs, 0u) << b << '/' << configName(c);
            EXPECT_GT(r.ipc, 0.0) << b << '/' << configName(c);
        }
        // The base core has no REV engine and therefore no commit stalls.
        EXPECT_EQ(s.at(b, Config::Base).commitStallCycles, 0u);
    }
}

TEST(SweepRunner, BenchmarkSubsetKeepsPaperOrder)
{
    SweepOptions opts = tinyOptions(2);
    const auto all = SweepOptions::quick().benchmarks;
    ASSERT_GE(all.size(), 2u);
    // Request in reverse: the sweep must come back in paper order, and
    // the subset's numbers must match the full tiny sweep exactly.
    opts.benchmarks = {all[1], all[0]};
    const Sweep s = runSweep(opts);
    ASSERT_EQ(s.benchmarks, (std::vector<std::string>{all[0], all[1]}));
    for (const auto &b : s.benchmarks)
        for (Config c : kAllConfigs)
            EXPECT_TRUE(s.at(b, c) == serialTiny().at(b, c))
                << b << '/' << configName(c);
}

TEST(SweepRunner, UnknownBenchmarkIsFatal)
{
    SweepOptions opts = tinyOptions(1);
    opts.benchmarks = {"no-such-benchmark"};
    EXPECT_THROW(runSweep(opts), FatalError);
}

TEST(SweepRunner, EnvThreadOverrideIsHonored)
{
    SweepOptions opts = tinyOptions(0);
    opts.benchmarks = {SweepOptions::quick().benchmarks.front()};
    ::setenv("REV_BENCH_THREADS", "3", 1);
    SweepRunner runner(opts);
    const Sweep s = runner.run();
    ::unsetenv("REV_BENCH_THREADS");
    EXPECT_EQ(runner.threadsUsed(), 3u);

    // ... and the env-sized run still matches the serial run exactly.
    for (Config c : kAllConfigs)
        EXPECT_TRUE(s.at(s.benchmarks.front(), c) ==
                    serialTiny().at(s.benchmarks.front(), c))
            << configName(c);
}

TEST(SweepRunner, TimingsCoverEveryJob)
{
    SweepOptions opts = tinyOptions(2);
    opts.benchmarks = {SweepOptions::quick().benchmarks.front()};
    SweepRunner runner(opts);
    const Sweep s = runner.run();
    EXPECT_EQ(runner.timings().size(),
              s.benchmarks.size() * std::size(kAllConfigs));
    for (const JobTiming &t : runner.timings())
        EXPECT_GT(t.wallSeconds, 0.0) << t.bench;
}

} // namespace
} // namespace rev::bench
