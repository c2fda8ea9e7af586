/**
 * @file
 * Page-shadowing tests (Sec. IV.A strict R5): the simulator-level
 * transactional rollback. The fork-as-transaction mechanism underneath
 * is pinned by SparseMemory.ForkIsAPageShadowTransaction.
 */

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "testutil.hpp"

namespace rev::core
{
namespace
{

TEST(PageShadowing, CleanRunKeepsResults)
{
    auto p = test::makeLoopCallProgram();
    SimConfig cfg;
    cfg.pageShadowing = true;
    Simulator sim(p, cfg);
    const SimResult r = sim.run();
    EXPECT_FALSE(r.memoryRolledBack);
    EXPECT_EQ(sim.memory().read64(test::kResultAddr), 110u);
}

TEST(PageShadowing, ViolationRollsBackAllMemory)
{
    // The victim writes a benign marker in an early (valid) block, then a
    // later block is compromised. Block-granular containment keeps the
    // early marker; whole-run shadowing rolls even it back.
    using namespace isa;
    auto build = [] {
        prog::Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(5, static_cast<i32>(prog::kHeapBase));
        a.movi(2, 7);
        a.st(2, 5, 0); // benign marker, validated and committed
        a.jmp("next");
        a.label("next");
        a.call("victim");
        a.halt();
        a.label("victim");
        a.addi(1, 1, 1);
        a.ret();
        prog::Program p;
        p.addModule(a.finalize("t", "main"));
        return p;
    };

    // Baseline: block-granular containment (default REV).
    {
        auto p = build();
        SimConfig cfg;
        Simulator sim(p, cfg);
        const Addr victim = p.main().symbol("victim");
        sim.core().setPreStepHook([&](u64 idx, Addr) {
            if (idx == 5) {
                sim.memory().write8(victim, 0x11);
                sim.engine()->invalidateCodeCache();
            }
        });
        const SimResult r = sim.run();
        ASSERT_TRUE(r.run.violation.has_value());
        EXPECT_EQ(sim.memory().read64(prog::kHeapBase), 7u); // marker kept
    }

    // Strict R5: the whole execution is a transaction.
    {
        auto p = build();
        SimConfig cfg;
        cfg.pageShadowing = true;
        Simulator sim(p, cfg);
        const Addr victim = p.main().symbol("victim");
        sim.core().setPreStepHook([&](u64 idx, Addr) {
            if (idx == 5) {
                sim.memory().write8(victim, 0x11);
                sim.engine()->invalidateCodeCache();
            }
        });
        const SimResult r = sim.run();
        ASSERT_TRUE(r.run.violation.has_value());
        EXPECT_TRUE(r.memoryRolledBack);
        EXPECT_EQ(sim.memory().read64(prog::kHeapBase), 0u); // rolled back
    }
}

} // namespace
} // namespace rev::core
