/**
 * @file
 * Snapshot-fork determinism: a run forked from a warmed snapshot at
 * instruction F must be indistinguishable — every tracked statistic,
 * every verdict, every violation cycle — from a cold run that executed
 * the same prefix itself. Exercised across every sweep config (all
 * backends and validation modes) and with tamper injections at the fork
 * point (the red-team campaign's usage). Replay interaction is covered
 * separately: snapshots require direct execution, and replay_test.cpp
 * pins direct == replay.
 */

#include <gtest/gtest.h>

#include <optional>

#include "attacks/injector.hpp"
#include "bench/suite.hpp"
#include "core/snapshot.hpp"
#include "workloads/generator.hpp"

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

/** Full observable surface of one run: counters + run result fields. */
struct Observed
{
    core::SimResult res;
    stats::StatSet stats;
};

Observed
coldRun(const core::SimConfig &cfg)
{
    core::Simulator sim(benchProgram(), cfg);
    Observed o;
    o.res = sim.run();
    o.stats = sim.stats();
    return o;
}

Observed
forkedRun(const core::SimConfig &cfg, u64 fork_at)
{
    core::Simulator source(benchProgram(), cfg);
    std::optional<core::Snapshot> snap = source.snapshotAt(fork_at);
    EXPECT_TRUE(snap.has_value());
    auto fork = core::Simulator::forkFrom(*snap);
    Observed o;
    o.res = fork->run();
    o.stats = fork->stats();
    return o;
}

void
expectIdentical(const Observed &cold, const Observed &fork)
{
    EXPECT_EQ(cold.res.run.cycles, fork.res.run.cycles);
    EXPECT_EQ(cold.res.run.instrs, fork.res.run.instrs);
    EXPECT_EQ(cold.res.run.committedBranches, fork.res.run.committedBranches);
    EXPECT_EQ(cold.res.run.mispredicts, fork.res.run.mispredicts);
    EXPECT_EQ(cold.res.run.halted, fork.res.run.halted);
    EXPECT_EQ(cold.res.run.violation.has_value(),
              fork.res.run.violation.has_value());
    if (cold.res.run.violation && fork.res.run.violation) {
        EXPECT_EQ(cold.res.run.violation->cycle, fork.res.run.violation->cycle);
        EXPECT_EQ(cold.res.run.violation->pc, fork.res.run.violation->pc);
        EXPECT_EQ(cold.res.run.violation->reason,
                  fork.res.run.violation->reason);
    }
    ASSERT_EQ(cold.stats.rows().size(), fork.stats.rows().size());
    for (std::size_t i = 0; i < cold.stats.rows().size(); ++i) {
        EXPECT_EQ(cold.stats.rows()[i].first, fork.stats.rows()[i].first);
        EXPECT_EQ(cold.stats.rows()[i].second, fork.stats.rows()[i].second)
            << cold.stats.rows()[i].first;
    }
}

TEST(SnapshotFork, MatchesColdRunAcrossAllConfigs)
{
    for (Config c : kAllConfigs) {
        SCOPED_TRACE(configName(c));
        const core::SimConfig cfg = sweepSimConfig(c, kBudget);
        expectIdentical(coldRun(cfg), forkedRun(cfg, kForkIndex));
    }
}

TEST(SnapshotFork, MatchesColdRunLoFatBackend)
{
    core::SimConfig cfg = sweepSimConfig(Config::Full32, kBudget);
    cfg.backend = validate::Backend::LoFat;

    core::Simulator cold(benchProgram(), cfg);
    const core::SimResult cold_res = cold.run();

    core::Simulator source(benchProgram(), cfg);
    auto snap = source.snapshotAt(kForkIndex);
    ASSERT_TRUE(snap.has_value());
    auto fork = core::Simulator::forkFrom(*snap);
    const core::SimResult fork_res = fork->run();

    // The measurement chain folds every committed control-flow event
    // since instruction 0: byte-equality proves the fork continued the
    // source's chain exactly where a cold run would have been.
    ASSERT_NE(cold.lofat(), nullptr);
    ASSERT_NE(fork->lofat(), nullptr);
    EXPECT_EQ(cold.lofat()->chain(), fork->lofat()->chain());
    EXPECT_EQ(cold_res.run.cycles, fork_res.run.cycles);
    EXPECT_EQ(cold_res.lofat.chainUpdates, fork_res.lofat.chainUpdates);
    EXPECT_EQ(cold_res.lofat.bufferSpills, fork_res.lofat.bufferSpills);
    EXPECT_EQ(cold_res.lofat.spillBytes, fork_res.lofat.spillBytes);
}

/** Tamper at the fork point: the campaign's exact usage. The injected
 *  fork must produce the same violation, at the same cycle, as a cold
 *  run with the same hook installed from instruction 0. */
TEST(SnapshotFork, InjectedForkMatchesColdInjection)
{
    const core::SimConfig cfg = sweepSimConfig(Config::Full32, kBudget);
    const std::vector<u8> garbage = {0x90, 0x90, 0x90, 0x90};

    // Tampering the bytes the machine is about to fetch guarantees the
    // dirtied block is validated immediately after the hook fires.
    auto arm = [&](core::Simulator &sim, bool &fired) {
        attacks::inject::onceAtIndex(
            sim, kForkIndex,
            [&garbage](core::Simulator &s) {
                attacks::inject::tamperCode(s, s.core().machine().pc(),
                                            garbage);
            },
            fired);
    };

    bool cold_fired = false;
    core::Simulator cold(benchProgram(), cfg);
    arm(cold, cold_fired);
    const core::SimResult cold_res = cold.run();

    core::Simulator source(benchProgram(), cfg);
    auto snap = source.snapshotAt(kForkIndex);
    ASSERT_TRUE(snap.has_value());
    auto fork = core::Simulator::forkFrom(*snap);
    bool fork_fired = false;
    arm(*fork, fork_fired);
    const core::SimResult fork_res = fork->run();

    EXPECT_TRUE(cold_fired);
    EXPECT_TRUE(fork_fired);
    ASSERT_TRUE(cold_res.run.violation.has_value());
    ASSERT_TRUE(fork_res.run.violation.has_value());
    EXPECT_EQ(cold_res.run.violation->cycle, fork_res.run.violation->cycle);
    EXPECT_EQ(cold_res.run.violation->pc, fork_res.run.violation->pc);
    EXPECT_EQ(cold_res.run.violation->reason, fork_res.run.violation->reason);
}

/** Two forks of one snapshot run independently: a tamper in one must
 *  not leak into the other (COW isolation at the harness level), and
 *  the clean fork still matches the cold run. */
TEST(SnapshotFork, SiblingForksAreIsolated)
{
    const core::SimConfig cfg = sweepSimConfig(Config::Full32, kBudget);
    const Observed cold = coldRun(cfg);

    core::Simulator source(benchProgram(), cfg);
    auto snap = source.snapshotAt(kForkIndex);
    ASSERT_TRUE(snap.has_value());

    auto dirty = core::Simulator::forkFrom(*snap);
    bool fired = false;
    const std::vector<u8> garbage = {0xff, 0xff, 0xff, 0xff};
    attacks::inject::onceAtIndex(
        *dirty, kForkIndex,
        [&garbage](core::Simulator &s) {
            attacks::inject::tamperCode(s, s.core().machine().pc(), garbage);
        },
        fired);
    const core::SimResult dirty_res = dirty->run();
    EXPECT_TRUE(fired);
    EXPECT_TRUE(dirty_res.run.violation.has_value());

    auto clean = core::Simulator::forkFrom(*snap);
    Observed clean_obs;
    clean_obs.res = clean->run();
    clean_obs.stats = clean->stats();
    expectIdentical(cold, clean_obs);
}

/** The source cursor advances across several pause points; a fork taken
 *  at the LAST pause must still match a cold run (the campaign reuses
 *  one cursor for all fire indices of a config). */
TEST(SnapshotFork, CursorAdvancesAcrossPausePoints)
{
    const core::SimConfig cfg = sweepSimConfig(Config::Agg32, kBudget);
    const Observed cold = coldRun(cfg);

    core::Simulator source(benchProgram(), cfg);
    ASSERT_TRUE(source.runUntil(1'000));
    ASSERT_TRUE(source.runUntil(4'096));
    ASSERT_TRUE(source.runUntil(4'096)); // same index: immediate pause
    auto snap = source.snapshotAt(kForkIndex);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->instrIndex, kForkIndex);

    auto fork = core::Simulator::forkFrom(*snap);
    Observed fork_obs;
    fork_obs.res = fork->run();
    fork_obs.stats = fork->stats();
    expectIdentical(cold, fork_obs);
}

/** A paused source resumed to completion equals an uninterrupted run. */
TEST(SnapshotFork, ResumedSourceMatchesColdRun)
{
    const core::SimConfig cfg = sweepSimConfig(Config::Cfi32, kBudget);
    const Observed cold = coldRun(cfg);

    core::Simulator source(benchProgram(), cfg);
    ASSERT_TRUE(source.runUntil(kForkIndex));
    (void)source.capture();
    Observed resumed;
    resumed.res = source.run();
    resumed.stats = source.stats();
    expectIdentical(cold, resumed);
}

} // namespace
} // namespace rev::bench
