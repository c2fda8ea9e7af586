/**
 * @file
 * Return-validation scheme tests: the paper's delayed-predecessor scheme
 * (Sec. V.A) vs a conventional shadow call stack, both as REV engine
 * options. Both must accept legitimate executions and catch return
 * hijacks; the shadow stack additionally models spill/refill costs on
 * deep recursion.
 */

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "program/assembler.hpp"
#include "testutil.hpp"

namespace rev::core
{
namespace
{

SimConfig
cfgWith(validate::ReturnValidation rv)
{
    SimConfig cfg;
    cfg.rev.returnValidation = rv;
    return cfg;
}

class ReturnSchemes : public ::testing::TestWithParam<validate::ReturnValidation>
{
};

TEST_P(ReturnSchemes, LegitimateCallsAndReturnsPass)
{
    auto p = test::makeLoopCallProgram();
    Simulator sim(p, cfgWith(GetParam()));
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    EXPECT_EQ(sim.memory().read64(test::kResultAddr), 110u);
}

TEST_P(ReturnSchemes, IndirectDispatchPasses)
{
    auto p = test::makeIndirectDispatchProgram();
    Simulator sim(p, cfgWith(GetParam()));
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
}

TEST_P(ReturnSchemes, ReturnHijackDetected)
{
    using namespace isa;
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.call("f");
    a.halt();
    a.label("f");
    a.addi(1, 1, 1);
    const Addr ret_pc = a.ret();
    a.label("gadget");
    a.movi(9, 666);
    a.halt();
    prog::Program p;
    p.addModule(a.finalize("t", "main"));

    Simulator sim(p, cfgWith(GetParam()));
    const Addr gadget = p.main().symbol("gadget");
    sim.core().setPreStepHook([&](u64, Addr pc) {
        if (pc == ret_pc) {
            const Addr sp = sim.core().machine().reg(isa::kRegSp);
            sim.memory().write64(sp, gadget);
        }
    });
    const SimResult r = sim.run();
    ASSERT_TRUE(r.run.violation.has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ReturnSchemes,
    ::testing::Values(validate::ReturnValidation::DelayedPredecessor,
                      validate::ReturnValidation::ShadowStack),
    [](const auto &info) {
        return info.param == validate::ReturnValidation::DelayedPredecessor
                   ? std::string("DelayedPredecessor")
                   : std::string("ShadowStack");
    });

/** Build a deep recursion: f(n) calls itself n times. */
prog::Program
makeDeepRecursion(int depth)
{
    using namespace isa;
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, depth);
    a.call("f");
    a.halt();
    a.label("f");
    a.addi(1, 1, -1);
    a.beq(1, 0, "base");
    a.call("f"); // recurse
    a.label("base");
    a.ret();
    prog::Program p;
    p.addModule(a.finalize("rec", "main"));
    return p;
}

TEST(ShadowStack, DeepRecursionSpillsAndRefills)
{
    auto p = makeDeepRecursion(300);
    SimConfig cfg = cfgWith(validate::ReturnValidation::ShadowStack);
    cfg.rev.shadowStackEntries = 32;
    Simulator sim(p, cfg);
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    EXPECT_GT(r.rev.shadowSpills, 0u);
    EXPECT_GT(r.rev.shadowRefills, 0u);
}

TEST(ShadowStack, RefillOnAFailingReturnIsCounted)
{
    // 300 nested calls over 32 on-chip entries spill 17 batches of 16
    // (272 frames in memory); the 29th return is the first to find the
    // on-chip part empty (300 - 28 == 272) and refills before it pops.
    // A return that fails the shadow check still pays its refill.
    for (const auto &[smashed, refills] :
         {std::pair{28, 0u}, std::pair{29, 1u}}) {
        using namespace isa;
        prog::Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(1, 300);
        a.call("f");
        a.halt();
        a.label("f");
        a.addi(1, 1, -1);
        a.beq(1, 0, "base");
        a.call("f");
        a.label("base");
        const Addr ret_pc = a.ret();
        prog::Program p;
        p.addModule(a.finalize("rec", "main"));

        SimConfig cfg = cfgWith(validate::ReturnValidation::ShadowStack);
        cfg.rev.shadowStackEntries = 32;
        Simulator sim(p, cfg);
        int rets = 0;
        sim.core().setPreStepHook([&](u64, Addr pc) {
            if (pc == ret_pc && ++rets == smashed) {
                const Addr sp = sim.core().machine().reg(isa::kRegSp);
                sim.memory().write64(sp, p.main().entry);
            }
        });
        const SimResult r = sim.run();
        SCOPED_TRACE(smashed);
        ASSERT_TRUE(r.run.violation.has_value());
        EXPECT_NE(r.run.violation->reason.find("violates shadow stack"),
                  std::string::npos);
        EXPECT_EQ(r.rev.shadowSpills, 17u);
        EXPECT_EQ(r.rev.shadowRefills, refills);
    }
}

TEST(ShadowStack, DelayedSchemeHandlesRecursionWithoutSpills)
{
    auto p = makeDeepRecursion(300);
    Simulator sim(p, cfgWith(validate::ReturnValidation::DelayedPredecessor));
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    EXPECT_EQ(r.rev.shadowSpills, 0u);
}

TEST(ShadowStack, SpillsCostCycles)
{
    auto p = makeDeepRecursion(400);
    SimConfig tight = cfgWith(validate::ReturnValidation::ShadowStack);
    tight.rev.shadowStackEntries = 8;
    SimConfig roomy = cfgWith(validate::ReturnValidation::ShadowStack);
    roomy.rev.shadowStackEntries = 1024;

    Simulator s1(p, tight), s2(p, roomy);
    const SimResult r1 = s1.run();
    const SimResult r2 = s2.run();
    EXPECT_GT(r1.rev.shadowSpills, r2.rev.shadowSpills);
    EXPECT_GE(r1.run.cycles, r2.run.cycles);
}

} // namespace
} // namespace rev::core
