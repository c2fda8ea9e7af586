/**
 * @file
 * Profiling-run tests (Sec. IV.D computed-branch target discovery).
 */

#include <gtest/gtest.h>

#include "program/cfg.hpp"
#include "program/profiler.hpp"
#include "testutil.hpp"

namespace rev::prog
{
namespace
{

TEST(Profiler, DiscoversIndirectTargets)
{
    auto p = test::makeIndirectDispatchProgram();
    // Strip the static annotations to force discovery by profiling.
    p.modules()[0].indirectTargets.clear();

    const Profile prof = profileRun(p);
    EXPECT_TRUE(prof.halted);
    ASSERT_EQ(prof.indirectTargets.size(), 1u);
    const auto &targets = prof.indirectTargets.begin()->second;
    EXPECT_EQ(targets.size(), 2u);
    EXPECT_TRUE(targets.count(p.main().symbol("fn_a")));
    EXPECT_TRUE(targets.count(p.main().symbol("fn_b")));
}

TEST(Profiler, ApplyProfileMergesAnnotations)
{
    auto p = test::makeIndirectDispatchProgram();
    p.modules()[0].indirectTargets.clear();
    const Profile prof = profileRun(p);
    applyProfile(p, prof);

    ASSERT_EQ(p.main().indirectTargets.size(), 1u);
    // CFG now resolves the computed call from the merged annotations.
    Cfg cfg = buildCfg(p.main());
    bool found = false;
    for (const auto &bb : cfg.blocks()) {
        if (bb.kind == TermKind::CallIndirect) {
            found = true;
            EXPECT_EQ(cfg.succs(bb).size(), 2u);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Profiler, CountsBranchesAndInstructions)
{
    auto p = test::makeLoopCallProgram();
    const Profile prof = profileRun(p);
    EXPECT_TRUE(prof.halted);
    EXPECT_GT(prof.instrCount, 30u);
    // 10 loop branches + call + ret + halt = 13 control transfers.
    EXPECT_EQ(prof.branchCount, 13u);
    EXPECT_TRUE(prof.indirectTargets.empty());
}

TEST(Profiler, InstructionBudgetRespected)
{
    auto p = test::makeLoopCallProgram();
    const Profile prof = profileRun(p, 5);
    EXPECT_EQ(prof.instrCount, 5u);
    EXPECT_FALSE(prof.halted);
}

} // namespace
} // namespace rev::prog
