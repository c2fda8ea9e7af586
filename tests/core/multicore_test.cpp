/**
 * @file
 * Multicore Simulator tests: N cores over a shared L2/DRAM with
 * per-core validators.
 *
 * The contract under test, in order of importance:
 *   1. N=1 is bit-identical to the historical single-core machine —
 *      same results, same stats rows in the same order — for every
 *      backend and validation mode (the golden pins in tests/bench
 *      guard the same property against the quick-sweep snapshot).
 *   2. N-core runs are deterministic: the scheduler interleaving is a
 *      pure function of per-core committed counts, so re-running a
 *      config reproduces every aggregate and per-core number.
 *   3. Trace replay and snapshot forking compose with N>1.
 *   4. Contention is real and visible: adding cores never speeds up a
 *      core or lowers REV's overhead, and the cross-core wait counters
 *      attribute the queueing.
 */

#include <gtest/gtest.h>

#include <optional>

#include "core/snapshot.hpp"
#include "program/trace.hpp"
#include "workloads/generator.hpp"
#include "workloads/scheduler.hpp"

namespace rev::core
{
namespace
{

constexpr u64 kBudget = 30'000;

const prog::Program &
schedProgram()
{
    static const prog::Program p =
        workloads::buildProgram(workloads::schedStormProfile());
    return p;
}

const prog::Program &
mixProgram()
{
    static const prog::Program p = [] {
        workloads::WorkloadProfile prof = workloads::specProfile("bzip2");
        prof.numFunctions = 200;
        return workloads::generateWorkload(prof);
    }();
    return p;
}

SimConfig
schedConfig(unsigned cores)
{
    SimConfig cfg;
    cfg.numCores = cores;
    cfg.coreIdAddr = workloads::kSchedCoreIdWord;
    cfg.core.maxInstrs = kBudget;
    return cfg;
}

struct Observed
{
    SimResult res;
    stats::StatSet stats;
};

Observed
observe(const prog::Program &p, const SimConfig &cfg)
{
    Simulator sim(p, cfg);
    Observed o;
    o.res = sim.run();
    o.stats = sim.stats();
    return o;
}

void
expectSameRows(const stats::StatSet &a, const stats::StatSet &b)
{
    ASSERT_EQ(a.rows().size(), b.rows().size());
    for (std::size_t i = 0; i < a.rows().size(); ++i) {
        EXPECT_EQ(a.rows()[i].first, b.rows()[i].first) << "row " << i;
        EXPECT_EQ(a.rows()[i].second, b.rows()[i].second)
            << a.rows()[i].first;
    }
}

void
expectSameRun(const cpu::RunResult &a, const cpu::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.committedBranches, b.committedBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.violation.has_value(), b.violation.has_value());
}

// ---------------------------------------------------------------------------
// 1. N=1 bit-identity
// ---------------------------------------------------------------------------

TEST(Multicore, N1IsBitIdenticalToTheSingleCoreMachine)
{
    for (const validate::Backend backend :
         {validate::Backend::Rev, validate::Backend::LoFat,
          validate::Backend::Null}) {
        SimConfig legacy; // the pre-multicore configuration, untouched
        legacy.backend = backend;
        legacy.core.maxInstrs = kBudget;

        SimConfig n1 = legacy;
        n1.numCores = 1;
        n1.schedQuantumInstrs = 7; // ignored at N=1 by contract

        const Observed a = observe(mixProgram(), legacy);
        const Observed b = observe(mixProgram(), n1);
        expectSameRun(a.res.run, b.res.run);
        expectSameRows(a.stats, b.stats);
    }
}

TEST(Multicore, PerCoreStatRowsAppearOnlyAboveOneCore)
{
    const Observed one = observe(schedProgram(), schedConfig(1));
    for (const auto &[name, value] : one.stats.rows())
        EXPECT_EQ(name.find(".c0."), std::string::npos) << name;

    const Observed two = observe(schedProgram(), schedConfig(2));
    bool saw_port = false, saw_xcore = false;
    for (const auto &[name, value] : two.stats.rows()) {
        saw_port |= name.find("c1.req.") != std::string::npos;
        saw_xcore |= name.find("c1.xcore.l2_wait_cycles") !=
                     std::string::npos;
    }
    EXPECT_TRUE(saw_port);
    EXPECT_TRUE(saw_xcore);
}

// ---------------------------------------------------------------------------
// 2. N-core determinism
// ---------------------------------------------------------------------------

TEST(Multicore, FourCoreRunsAreDeterministic)
{
    const Observed a = observe(schedProgram(), schedConfig(4));
    const Observed b = observe(schedProgram(), schedConfig(4));
    ASSERT_EQ(a.res.perCore.size(), 4u);
    expectSameRun(a.res.run, b.res.run);
    for (std::size_t c = 0; c < 4; ++c)
        expectSameRun(a.res.perCore[c], b.res.perCore[c]);
    expectSameRows(a.stats, b.stats);
}

TEST(Multicore, HartidRotatesTheSchedulePerCore)
{
    // With the hartid word published, each core executes a different
    // thread interleaving of the same scheduler program...
    const Observed rotated = observe(schedProgram(), schedConfig(2));
    ASSERT_EQ(rotated.res.perCore.size(), 2u);
    EXPECT_NE(rotated.res.perCore[0].committedBranches,
              rotated.res.perCore[1].committedBranches);

    // ...and with it unset every core runs the identical stream.
    SimConfig plain = schedConfig(2);
    plain.coreIdAddr = 0;
    const Observed lockstep = observe(schedProgram(), plain);
    EXPECT_EQ(lockstep.res.perCore[0].instrs,
              lockstep.res.perCore[1].instrs);
    EXPECT_EQ(lockstep.res.perCore[0].committedBranches,
              lockstep.res.perCore[1].committedBranches);
}

// ---------------------------------------------------------------------------
// 3. Replay and snapshots compose with N>1
// ---------------------------------------------------------------------------

TEST(Multicore, TraceReplayMatchesDirectExecutionAtTwoCores)
{
    // coreIdAddr unset: all cores run the recorded stream, so the one
    // trace (recorded from core 0) attaches everywhere.
    SimConfig cfg;
    cfg.numCores = 2;
    cfg.core.maxInstrs = kBudget;

    prog::TraceRecorder recorder;
    SimConfig rec = cfg;
    rec.traceRecorder = &recorder;
    const Observed direct = observe(mixProgram(), rec);
    const prog::Trace trace = recorder.take();
    ASSERT_TRUE(trace.replayable());

    SimConfig rep = cfg;
    rep.replayTrace = &trace;
    Simulator sim(mixProgram(), rep);
    EXPECT_TRUE(sim.replayActive());
    Observed replayed;
    replayed.res = sim.run();
    replayed.stats = sim.stats();

    expectSameRun(direct.res.run, replayed.res.run);
    for (std::size_t c = 0; c < 2; ++c)
        expectSameRun(direct.res.perCore[c], replayed.res.perCore[c]);
    expectSameRows(direct.stats, replayed.stats);
}

TEST(Multicore, SnapshotForkRoundTripsTwoCores)
{
    const SimConfig cfg = schedConfig(2);
    const Observed cold = observe(schedProgram(), cfg);

    Simulator source(schedProgram(), cfg);
    std::optional<Snapshot> snap = source.snapshotAt(kBudget / 3);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->extra.size(), 1u); // core 1 rides in the extra slot

    auto fork = Simulator::forkFrom(*snap);
    Observed forked;
    forked.res = fork->run();
    forked.stats = fork->stats();

    expectSameRun(cold.res.run, forked.res.run);
    for (std::size_t c = 0; c < 2; ++c)
        expectSameRun(cold.res.perCore[c], forked.res.perCore[c]);
    expectSameRows(cold.stats, forked.stats);
}

// ---------------------------------------------------------------------------
// 4. Contention is real
// ---------------------------------------------------------------------------

TEST(Multicore, SharedL2ContentionNeverSpeedsACoreUp)
{
    const Observed one = observe(schedProgram(), schedConfig(1));
    const Observed two = observe(schedProgram(), schedConfig(2));
    const Observed four = observe(schedProgram(), schedConfig(4));

    // Same per-core budget everywhere; the aggregate (slowest-core)
    // cycle count may only grow as bidders join the shared L2 port.
    EXPECT_GE(two.res.run.cycles, one.res.run.cycles);
    EXPECT_GE(four.res.run.cycles, two.res.run.cycles);

    // The queueing shows up attributed to cross-core interference, and
    // specifically to validator SC-fill traffic losing arbitrations.
    u64 xcore = 0, xcore_sc = 0;
    for (const auto &[name, value] : four.stats.rows()) {
        if (name.find("xcore.l2_wait_cycles") != std::string::npos)
            xcore += value;
        if (name.find("xcore.sc_fill_wait_cycles") != std::string::npos)
            xcore_sc += value;
    }
    EXPECT_GT(xcore, 0u);
    EXPECT_GT(xcore_sc, 0u);
}

TEST(Multicore, OverheadNeverFallsAsCoresAreAdded)
{
    // The figures multicore table's setup: fixed DRAM and DMA pressure,
    // so each added validator bids for the same fill bandwidth. REV's
    // overhead (aggregate-cycle ratio) may only grow with the core count.
    double last = 0;
    for (unsigned cores : {1u, 2u, 4u}) {
        SimConfig rev = schedConfig(cores);
        rev.core.maxInstrs = 100'000;
        rev.mem.dmaIntervalCycles = 400;
        SimConfig base = rev;
        base.backend = validate::Backend::Null;
        const double base_cycles =
            Simulator(schedProgram(), base).run().run.cycles;
        const double overhead =
            Simulator(schedProgram(), rev).run().run.cycles / base_cycles - 1;
        EXPECT_GT(overhead, 0) << cores << " cores";
        EXPECT_GE(overhead, last) << cores << " cores";
        last = overhead;
    }
}

} // namespace
} // namespace rev::core
