/**
 * @file
 * Snapshot-fork determinism: a run forked from a warmed snapshot at
 * instruction F must be indistinguishable — every tracked statistic,
 * every verdict, every violation cycle — from a cold run that executed
 * the same prefix itself. Exercised for every registered backend (a new
 * backend is covered without touching this file), across every sweep
 * config, with tamper injections at the fork point (the red-team
 * campaign's usage), and at two cores. Replay interaction is covered
 * separately: snapshots require direct execution, and replay_test.cpp
 * pins direct == replay.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "attacks/injector.hpp"
#include "bench/suite.hpp"
#include "core/simulator.hpp"
#include "workloads/generator.hpp"
#include "workloads/scheduler.hpp"

namespace rev::bench
{
namespace
{

constexpr u64 kBudget = 20'000;
constexpr u64 kForkIndex = 7'000;

const prog::Program &
benchProgram()
{
    static const prog::Program p =
        workloads::generateWorkload(workloads::specProfile("sjeng"));
    return p;
}

const prog::Program &
schedProgram()
{
    static const prog::Program p =
        workloads::buildProgram(workloads::schedStormProfile());
    return p;
}

/** Every registered backend, in registry order. */
const std::vector<validate::BackendInfo> &
backends()
{
    return validate::ValidatorRegistry::instance().list();
}

/** Full observable surface of one run: counters, run result fields and
 *  the final memory image. */
struct Observed
{
    core::SimResult res;
    stats::StatSet stats;
    std::map<u64, std::vector<u8>> pages; ///< core 0's memory after the run
};

Observed
observe(core::Simulator &sim)
{
    Observed o;
    o.res = sim.run();
    o.stats = sim.stats();
    sim.memory().forEachPage([&o](u64 page, const u8 *bytes) {
        o.pages[page].assign(bytes, bytes + SparseMemory::kPageSize);
    });
    return o;
}

Observed
coldRun(const prog::Program &p, const core::SimConfig &cfg)
{
    core::Simulator sim(p, cfg);
    return observe(sim);
}

Observed
forkedRun(const core::SimConfig &cfg, u64 fork_at)
{
    core::Simulator source(benchProgram(), cfg);
    std::optional<core::Snapshot> snap = source.snapshotAt(fork_at);
    EXPECT_TRUE(snap.has_value());
    auto fork = core::Simulator::forkFrom(*snap);
    return observe(*fork);
}

void
expectSameRun(const cpu::RunResult &cold, const cpu::RunResult &fork)
{
    EXPECT_EQ(cold.cycles, fork.cycles);
    EXPECT_EQ(cold.instrs, fork.instrs);
    EXPECT_EQ(cold.committedBranches, fork.committedBranches);
    EXPECT_EQ(cold.mispredicts, fork.mispredicts);
    EXPECT_EQ(cold.halted, fork.halted);
    EXPECT_EQ(cold.violation.has_value(), fork.violation.has_value());
    if (cold.violation && fork.violation) {
        EXPECT_EQ(cold.violation->cycle, fork.violation->cycle);
        EXPECT_EQ(cold.violation->pc, fork.violation->pc);
        EXPECT_EQ(cold.violation->reason, fork.violation->reason);
    }
}

void
expectIdentical(const Observed &cold, const Observed &fork)
{
    expectSameRun(cold.res.run, fork.res.run);
    ASSERT_EQ(cold.res.perCore.size(), fork.res.perCore.size());
    for (std::size_t c = 0; c < cold.res.perCore.size(); ++c)
        expectSameRun(cold.res.perCore[c], fork.res.perCore[c]);
    EXPECT_EQ(cold.res.memoryRolledBack, fork.res.memoryRolledBack);
    ASSERT_EQ(cold.stats.rows().size(), fork.stats.rows().size());
    for (std::size_t i = 0; i < cold.stats.rows().size(); ++i) {
        EXPECT_EQ(cold.stats.rows()[i].first, fork.stats.rows()[i].first);
        EXPECT_EQ(cold.stats.rows()[i].second, fork.stats.rows()[i].second)
            << cold.stats.rows()[i].first;
    }
    EXPECT_EQ(cold.pages.size(), fork.pages.size());
    EXPECT_TRUE(cold.pages == fork.pages) << "final memory images differ";
}

/** Tamper the bytes the machine is about to fetch at kForkIndex, so the
 *  dirtied block is validated immediately after the hook fires. */
void
armTamper(core::Simulator &sim, const std::vector<u8> &garbage, bool &fired)
{
    attacks::inject::onceAtIndex(
        sim, kForkIndex,
        [&garbage](core::Simulator &s) {
            attacks::inject::tamperCode(s, s.core().machine().pc(), garbage);
        },
        fired);
}

TEST(SnapshotFork, MatchesColdRunAcrossAllConfigs)
{
    // Config::Base is the null backend at the Full32 geometry, which the
    // backend loop covers.
    for (Config c : kAllConfigs) {
        if (c == Config::Base)
            continue;
        SCOPED_TRACE(configName(c));
        for (const validate::BackendInfo &info : backends()) {
            SCOPED_TRACE(info.name);
            core::SimConfig cfg = sweepSimConfig(c, kBudget);
            cfg.backend = info.kind;
            expectIdentical(coldRun(benchProgram(), cfg),
                            forkedRun(cfg, kForkIndex));
        }
    }
}

/** The fork continues the backend's own running state, not only its
 *  counters: LO-FAT's measurement chain folds every committed
 *  control-flow event since instruction 0, so byte-equality proves the
 *  fork continued the source's chain exactly where a cold run would
 *  have been. */
TEST(SnapshotFork, MatchesColdRunLoFatBackend)
{
    for (const validate::BackendInfo &info : backends()) {
        SCOPED_TRACE(info.name);
        core::SimConfig cfg = sweepSimConfig(Config::Full32, kBudget);
        cfg.backend = info.kind;

        core::Simulator cold(benchProgram(), cfg);
        const Observed cold_obs = observe(cold);

        core::Simulator source(benchProgram(), cfg);
        auto snap = source.snapshotAt(kForkIndex);
        ASSERT_TRUE(snap.has_value());
        auto fork = core::Simulator::forkFrom(*snap);
        expectIdentical(cold_obs, observe(*fork));

        EXPECT_EQ(cold.validator()->violationReason(),
                  fork->validator()->violationReason());
        if (cold.lofat()) {
            ASSERT_NE(fork->lofat(), nullptr);
            EXPECT_EQ(cold.lofat()->chain(), fork->lofat()->chain());
        }
    }
}

/** Tamper at the fork point: the campaign's exact usage. The injected
 *  fork must produce the same outcome — for a validating backend the
 *  same violation, at the same cycle — as a cold run with the same hook
 *  installed from instruction 0. */
TEST(SnapshotFork, InjectedForkMatchesColdInjection)
{
    const std::vector<u8> garbage = {0x90, 0x90, 0x90, 0x90};
    for (const validate::BackendInfo &info : backends()) {
        SCOPED_TRACE(info.name);
        core::SimConfig cfg = sweepSimConfig(Config::Full32, kBudget);
        cfg.backend = info.kind;

        bool cold_fired = false;
        core::Simulator cold(benchProgram(), cfg);
        const bool validating = cold.validator()->validationActive();
        armTamper(cold, garbage, cold_fired);
        const Observed cold_obs = observe(cold);

        core::Simulator source(benchProgram(), cfg);
        auto snap = source.snapshotAt(kForkIndex);
        ASSERT_TRUE(snap.has_value());
        auto fork = core::Simulator::forkFrom(*snap);
        bool fork_fired = false;
        armTamper(*fork, garbage, fork_fired);
        const Observed fork_obs = observe(*fork);

        EXPECT_TRUE(cold_fired);
        EXPECT_TRUE(fork_fired);
        if (validating) {
            EXPECT_TRUE(cold_obs.res.run.violation.has_value());
            EXPECT_TRUE(fork_obs.res.run.violation.has_value());
        }
        expectIdentical(cold_obs, fork_obs);
    }
}

/** Two forks of one snapshot run independently: a tamper in one must
 *  not leak into the other (COW isolation at the harness level), and
 *  the clean fork still matches the cold run. */
TEST(SnapshotFork, SiblingForksAreIsolated)
{
    const std::vector<u8> garbage = {0xff, 0xff, 0xff, 0xff};
    for (const validate::BackendInfo &info : backends()) {
        SCOPED_TRACE(info.name);
        core::SimConfig cfg = sweepSimConfig(Config::Full32, kBudget);
        cfg.backend = info.kind;
        const Observed cold = coldRun(benchProgram(), cfg);

        core::Simulator source(benchProgram(), cfg);
        auto snap = source.snapshotAt(kForkIndex);
        ASSERT_TRUE(snap.has_value());

        auto dirty = core::Simulator::forkFrom(*snap);
        const bool validating = dirty->validator()->validationActive();
        bool fired = false;
        armTamper(*dirty, garbage, fired);
        const core::SimResult dirty_res = dirty->run();
        EXPECT_TRUE(fired);
        if (validating) {
            EXPECT_TRUE(dirty_res.run.violation.has_value());
        }

        auto clean = core::Simulator::forkFrom(*snap);
        expectIdentical(cold, observe(*clean));
    }
}

/** The source cursor advances across several pause points; a fork taken
 *  at the LAST pause must still match a cold run (the campaign reuses
 *  one cursor for all fire indices of a config). */
TEST(SnapshotFork, CursorAdvancesAcrossPausePoints)
{
    for (const validate::BackendInfo &info : backends()) {
        SCOPED_TRACE(info.name);
        core::SimConfig cfg = sweepSimConfig(Config::Agg32, kBudget);
        cfg.backend = info.kind;
        const Observed cold = coldRun(benchProgram(), cfg);

        core::Simulator source(benchProgram(), cfg);
        ASSERT_TRUE(source.runUntil(1'000));
        ASSERT_TRUE(source.runUntil(4'096));
        ASSERT_TRUE(source.runUntil(4'096)); // same index: immediate pause
        auto snap = source.snapshotAt(kForkIndex);
        ASSERT_TRUE(snap.has_value());
        EXPECT_EQ(snap->instrIndex, kForkIndex);

        auto fork = core::Simulator::forkFrom(*snap);
        expectIdentical(cold, observe(*fork));
    }
}

/** A paused source resumed to completion equals an uninterrupted run. */
TEST(SnapshotFork, ResumedSourceMatchesColdRun)
{
    for (const validate::BackendInfo &info : backends()) {
        SCOPED_TRACE(info.name);
        core::SimConfig cfg = sweepSimConfig(Config::Cfi32, kBudget);
        cfg.backend = info.kind;
        const Observed cold = coldRun(benchProgram(), cfg);

        core::Simulator source(benchProgram(), cfg);
        ASSERT_TRUE(source.runUntil(kForkIndex));
        (void)source.capture();
        expectIdentical(cold, observe(source));
    }
}

/** A snapshot is self-contained: capture, destroy the source, fork a
 *  copy, then hand the snapshot itself to a last fork (the campaign's
 *  move path). Both forks match a cold run, on one core and on two. */
TEST(SnapshotFork, SnapshotOutlivesItsSource)
{
    struct Setup
    {
        const char *name;
        const prog::Program &program;
        core::SimConfig cfg;
        u64 forkAt;
    };
    core::SimConfig one = sweepSimConfig(Config::Full32, kBudget);
    core::SimConfig two = one;
    two.numCores = 2;
    two.coreIdAddr = workloads::kSchedCoreIdWord;
    two.core.maxInstrs = 30'000;
    const Setup setups[] = {
        {"1 core", benchProgram(), one, kForkIndex},
        {"2 cores", schedProgram(), two, 10'000},
    };

    for (const Setup &m : setups) {
        SCOPED_TRACE(m.name);
        for (const validate::BackendInfo &info : backends()) {
            SCOPED_TRACE(info.name);
            core::SimConfig cfg = m.cfg;
            cfg.backend = info.kind;
            const Observed cold = coldRun(m.program, cfg);

            std::optional<core::Snapshot> snap;
            {
                core::Simulator source(m.program, cfg);
                snap = source.snapshotAt(m.forkAt);
            }
            ASSERT_TRUE(snap.has_value());
            EXPECT_EQ(snap->instrIndex, m.forkAt);

            auto copy = core::Simulator::forkFrom(*snap);
            expectIdentical(cold, observe(*copy));

            auto last = core::Simulator::forkFrom(std::move(*snap));
            expectIdentical(cold, observe(*last));
        }
    }
}

/** Strict R5 with page shadowing: a run that fails rolls memory back to
 *  the image it started from. A fork started from the source's pre-run
 *  image too, so its rollback must land where a cold run's does, not at
 *  the fork point. */
TEST(SnapshotFork, PageShadowingRollsBackToThePreRunImage)
{
    const std::vector<u8> garbage = {0x90, 0x90, 0x90, 0x90};
    bool any_rollback = false;
    for (const validate::BackendInfo &info : backends()) {
        SCOPED_TRACE(info.name);
        core::SimConfig cfg = sweepSimConfig(Config::Full32, kBudget);
        cfg.backend = info.kind;
        cfg.pageShadowing = true;

        bool cold_fired = false;
        core::Simulator cold(benchProgram(), cfg);
        armTamper(cold, garbage, cold_fired);
        const Observed cold_obs = observe(cold);

        core::Simulator source(benchProgram(), cfg);
        auto snap = source.snapshotAt(kForkIndex);
        ASSERT_TRUE(snap.has_value());
        auto fork = core::Simulator::forkFrom(*snap);
        bool fork_fired = false;
        armTamper(*fork, garbage, fork_fired);
        const Observed fork_obs = observe(*fork);

        EXPECT_TRUE(cold_fired);
        EXPECT_TRUE(fork_fired);
        any_rollback = any_rollback || cold_obs.res.memoryRolledBack;
        expectIdentical(cold_obs, fork_obs);
    }
    EXPECT_TRUE(any_rollback);
}

} // namespace
} // namespace rev::bench
