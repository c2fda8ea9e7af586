/**
 * @file
 * Tier-1 guarantees of the parallel sweep engine: any thread count
 * produces results identical to the serial run, the options-driven API
 * behaves (subset selection, env thread override), and a job list's
 * results equal those of direct Simulator runs, whatever the runner
 * shares, replays or warms up. The serial and parallel reference sweeps
 * are computed once and shared across tests — each sweep costs real
 * simulation time.
 */

#include "bench/suite.hpp"
#include "bench/sweep_runner.hpp"

#include <cstdlib>

#include "common/parallel.hpp"
#include "workloads/generator.hpp"
#include "workloads/scheduler.hpp"

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

/** Every RunNumbers field of a direct run, read off its SimResult. */
RunNumbers
numbersOf(const core::SimResult &res)
{
    RunNumbers r;
    r.ipc = res.run.ipc();
    r.cycles = res.run.cycles;
    r.instrs = res.run.instrs;
    r.committedBranches = res.run.committedBranches;
    r.uniqueBranches = res.run.uniqueBranches;
    r.mispredicts = res.run.mispredicts;
    r.scCompleteMisses = res.rev.scCompleteMisses;
    r.scPartialMisses = res.rev.scPartialMisses;
    r.commitStallCycles = res.validation.commitStallCycles;
    r.scFillAccesses = res.scFillAccesses;
    r.scFillL1Misses = res.scFillL1Misses;
    r.scFillL2Misses = res.scFillL2Misses;
    r.violations = res.validation.violations;
    return r;
}

/**
 * The steady-state measurement as the former serial Fig. 7 harness ran
 * it: one warm-up quantum, resetStats(), then quanta until @p measure
 * instructions. Returns the measured (cycles, instrs).
 */
std::pair<u64, u64>
steadyOracle(const prog::Program &program, core::SimConfig cfg, u64 warm,
             u64 measure)
{
    cfg.core.maxInstrs = warm;
    core::Simulator sim(program, cfg);
    sim.run(); // warm
    sim.resetStats();
    u64 cycles = 0, instrs = 0;
    while (instrs < measure) {
        const core::SimResult r = sim.run();
        EXPECT_FALSE(r.run.violation);
        cycles += r.run.cycles;
        instrs += r.run.instrs;
        if (r.run.halted)
            break;
    }
    return {cycles, instrs};
}

TEST(SweepRunner, SteadyStateJobMatchesWarmUpLoop)
{
    constexpr u64 kWarm = 10'000, kMeasure = 20'000;
    const auto prof =
        workloads::specProfile(SweepOptions::quick().benchmarks.front());
    const prog::Program program = workloads::generateWorkload(prof);

    std::vector<Job> jobs;
    for (Config c : {Config::Base, Config::Full32, Config::Cfi32})
        jobs.push_back({prof, sweepSimConfig(c, kWarm), kMeasure, "steady"});
    // A one-shot job of the same program and budget rides along: it must
    // not disturb the steady-state jobs it shares tables and images with.
    jobs.push_back({prof, sweepSimConfig(Config::Full32, kWarm), 0, "once"});

    SweepOptions opts = tinyOptions(2);
    opts.benchmarks = {prof.name};
    std::vector<JobResult> res;
    SweepRunner(opts).run(jobs, &res);
    ASSERT_EQ(res.size(), jobs.size());
    for (std::size_t j = 0; j + 1 < jobs.size(); ++j) {
        const auto [cycles, instrs] =
            steadyOracle(program, jobs[j].cfg, kWarm, kMeasure);
        EXPECT_EQ(res[j].run.cycles, cycles) << "job " << j;
        EXPECT_EQ(res[j].run.instrs, instrs) << "job " << j;
        EXPECT_GE(res[j].run.instrs, kMeasure) << "job " << j;
        EXPECT_FALSE(res[j].replayed) << "job " << j;
    }
    EXPECT_TRUE(res.back().run ==
                numbersOf(core::Simulator(program, jobs.back().cfg).run()));
}

TEST(SweepRunner, AblationJobsMatchDirectRuns)
{
    constexpr u64 kBudget = 20'000;
    const auto prof =
        workloads::specProfile(SweepOptions::quick().benchmarks.front());
    const prog::Program program = workloads::generateWorkload(prof);
    SweepOptions opts = tinyOptions(3);
    opts.benchmarks = {prof.name};

    auto rev = [] {
        core::SimConfig cfg;
        cfg.core.maxInstrs = kBudget;
        return cfg;
    };
    std::vector<core::SimConfig> cfgs;
    cfgs.push_back(rev());
    cfgs.back().backend = validate::Backend::Null;
    cfgs.push_back(rev());
    cfgs.push_back(rev());
    cfgs.back().rev.chg.hashRounds = 2;
    cfgs.push_back(rev());
    cfgs.back().core.splitLimits.maxInstrs = 8;
    cfgs.push_back(cfgs.front());
    cfgs.back().core.splitLimits.maxInstrs = 8;
    cfgs.push_back(rev());
    cfgs.back().rev.sc.sizeBytes = 8 * 1024;
    cfgs.push_back(rev());
    cfgs.back().rev.chg.latency = 48;
    cfgs.push_back(rev());
    cfgs.back().rev.returnValidation =
        validate::ReturnValidation::ShadowStack;
    cfgs.push_back(cfgs.back());
    cfgs.back().rev.shadowStackEntries = 2; // force spills and refills
    cfgs.push_back(rev());
    cfgs.back().mem.dmaIntervalCycles = 4;

    std::vector<Job> jobs;
    for (const core::SimConfig &cfg : cfgs)
        jobs.push_back({prof, cfg, 0, "ablation"});
    // A 2-core job of the scheduler workload: its program comes from the
    // scheduler generator, and it runs direct beside 1-core replay groups.
    core::SimConfig two = rev();
    two.numCores = 2;
    two.coreIdAddr = workloads::kSchedCoreIdWord;
    jobs.push_back({workloads::schedStormProfile(), two, 0, "cores=2"});

    std::vector<core::SimResult> direct;
    for (const core::SimConfig &cfg : cfgs)
        direct.push_back(core::Simulator(program, cfg).run());
    EXPECT_GT(direct[8].rev.shadowSpills, 0u);
    const prog::Program sched = workloads::buildProgram(jobs.back().program);
    core::Simulator twoCores(sched, two);
    direct.push_back(twoCores.run());
    const u64 xcoreWait = twoCores.memsys().xcoreScFillWaitCycles(0) +
                          twoCores.memsys().xcoreScFillWaitCycles(1);
    EXPECT_GT(xcoreWait, 0u);

    for (const char *replay : {"1", "0"}) {
        SCOPED_TRACE(std::string("REV_TRACE_REPLAY=") + replay);
        ::setenv("REV_TRACE_REPLAY", replay, 1);
        std::vector<JobResult> res;
        SweepRunner(opts).run(jobs, &res);
        ::unsetenv("REV_TRACE_REPLAY");
        ASSERT_EQ(res.size(), jobs.size());
        std::size_t replayed = 0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            EXPECT_TRUE(res[j].run == numbersOf(direct[j])) << "job " << j;
            EXPECT_EQ(res[j].shadowSpills, direct[j].rev.shadowSpills)
                << "job " << j;
            EXPECT_EQ(res[j].shadowRefills, direct[j].rev.shadowRefills)
                << "job " << j;
            EXPECT_EQ(res[j].sigTableBytes, direct[j].sigTableBytes)
                << "job " << j;
            replayed += res[j].replayed;
        }
        EXPECT_EQ(res.back().xcoreScFillWaitCycles, xcoreWait);
        // The sweep's first REV job records the default-limits group's
        // trace (same program, same budget); the 8-instruction group
        // records on its own REV job; the 2-core job runs direct. Every
        // other job replays.
        EXPECT_EQ(replayed, replay[0] == '1' ? jobs.size() - 2 : 0u);
    }
}

TEST(CommandLine, CountsAreWholeDecimalNumbersInRange)
{
    EXPECT_EQ(parseCount<unsigned>("--threads", "4"), 4u);
    EXPECT_EQ(parseCount<unsigned>("--threads", "4294967295"), 4294967295u);
    EXPECT_EQ(parseCount<u64>("--instrs", "1", 1), 1u);
    // None of these is a count; a lenient parse reads them as
    // 4294967295 threads or a zero (unbounded) budget.
    for (const char *bad : {"-1", "abc", "", "12x", " 4", "+4", "0x10"})
        EXPECT_THROW(parseCount<unsigned>("--threads", bad), FatalError)
            << "'" << bad << "'";
    EXPECT_THROW(parseCount<unsigned>("--threads", "4294967296"), FatalError);
    EXPECT_THROW(parseCount<u64>("--instrs", "18446744073709551616"),
                 FatalError);
    EXPECT_THROW(parseCount<u64>("--instrs", "0", 1), FatalError);
    // Thread flags stop at kMaxThreads, so a typo never asks the OS for
    // 100k threads.
    EXPECT_EQ(parseCount<unsigned>("--threads", "256", 0, kMaxThreads), 256u);
    EXPECT_THROW(parseCount<unsigned>("--threads", "257", 0, kMaxThreads),
                 FatalError);
}

TEST(CommandLine, NameListsDropEmptyNames)
{
    EXPECT_EQ(parseNameList("mcf,,bzip2,"),
              (std::vector<std::string>{"mcf", "bzip2"}));
    EXPECT_TRUE(parseNameList("").empty());
}

} // namespace
} // namespace rev::bench
