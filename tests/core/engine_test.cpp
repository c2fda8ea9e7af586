/**
 * @file
 * End-to-end REV engine tests: legitimate executions always authenticate,
 * tampered code/control flow always raises a violation, and tainted
 * memory updates are contained (Requirements R0/R5).
 */

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "testutil.hpp"

namespace rev::core
{
namespace
{

using sig::ValidationMode;

SimConfig
cfgFor(ValidationMode mode, bool with_rev = true)
{
    SimConfig cfg;
    cfg.mode = mode;
    if (!with_rev)
        cfg.backend = validate::Backend::Null;
    return cfg;
}

/** Parameterized across validation modes. */
class EngineModes : public ::testing::TestWithParam<ValidationMode>
{
};

TEST_P(EngineModes, LegitimateRunNeverFires)
{
    auto p = test::makeLoopCallProgram();
    Simulator sim(p, cfgFor(GetParam()));
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    EXPECT_EQ(r.rev.violations, 0u);
    EXPECT_EQ(sim.memory().read64(test::kResultAddr), 110u);
}

TEST_P(EngineModes, IndirectDispatchAuthenticates)
{
    auto p = test::makeIndirectDispatchProgram();
    Simulator sim(p, cfgFor(GetParam()));
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    EXPECT_EQ(sim.core().machine().reg(1), 32u);
}

TEST_P(EngineModes, RevCostsCyclesButNotCorrectness)
{
    auto p = test::makeLoopCallProgram();
    Simulator base(p, cfgFor(GetParam(), false));
    Simulator rev(p, cfgFor(GetParam(), true));
    const SimResult rb = base.run();
    const SimResult rr = rev.run();
    EXPECT_EQ(rb.run.instrs, rr.run.instrs);
    EXPECT_GE(rr.run.cycles, rb.run.cycles);
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineModes,
                         ::testing::Values(ValidationMode::Full,
                                           ValidationMode::Aggressive,
                                           ValidationMode::CfiOnly),
                         [](const auto &info) {
                             switch (info.param) {
                               case ValidationMode::Full:
                                 return std::string("Full");
                               case ValidationMode::Aggressive:
                                 return std::string("Aggressive");
                               default:
                                 return std::string("CfiOnly");
                             }
                         });

TEST(Engine, ValidatesEveryBasicBlock)
{
    auto p = test::makeLoopCallProgram();
    Simulator sim(p, cfgFor(ValidationMode::Full));
    const SimResult r = sim.run();
    // Every committed control transfer validated a block.
    EXPECT_EQ(r.rev.bbValidated, r.run.committedBranches);
}

TEST(Engine, ScMissesOnlyOnFirstEncounters)
{
    auto p = test::makeLoopCallProgram();
    Simulator sim(p, cfgFor(ValidationMode::Full));
    const SimResult r = sim.run();
    // Loop body re-validates out of the SC: misses far fewer than probes.
    EXPECT_GT(r.rev.scMisses(), 0u);
    EXPECT_LT(r.rev.scMisses(), r.rev.bbValidated / 2);
}

TEST(Engine, ScFillTrafficGoesThroughHierarchy)
{
    auto p = test::makeLoopCallProgram();
    Simulator sim(p, cfgFor(ValidationMode::Full));
    const SimResult r = sim.run();
    EXPECT_GT(r.scFillAccesses, 0u);
    EXPECT_EQ(r.scFillAccesses, r.rev.tableWalkReads);
}

TEST(Engine, CodeInjectionDetected)
{
    auto p = test::makeLoopCallProgram();
    Simulator sim(p, cfgFor(ValidationMode::Full));
    // Overwrite an instruction inside the helper function before running.
    const Addr victim = p.main().symbol("helper");
    sim.memory().write8(victim, 0x11); // add -> sub
    sim.engine()->invalidateCodeCache();

    const SimResult r = sim.run();
    ASSERT_TRUE(r.run.violation.has_value());
    EXPECT_NE(r.run.violation->reason.find("hash mismatch"),
              std::string::npos);
}

TEST(Engine, MidRunCodeInjectionDetected)
{
    auto p = test::makeLoopCallProgram();
    Simulator sim(p, cfgFor(ValidationMode::Full));
    const Addr victim = p.main().symbol("helper");
    bool injected = false;
    sim.core().setPreStepHook([&](u64 idx, Addr) {
        if (idx == 20 && !injected) {
            sim.memory().write8(victim, 0x11);
            sim.engine()->invalidateCodeCache();
            injected = true;
        }
    });
    const SimResult r = sim.run();
    EXPECT_TRUE(injected);
    ASSERT_TRUE(r.run.violation.has_value());
}

TEST(Engine, TaintedStoresNeverReachMemory)
{
    // Corrupt the helper so it writes a marker to memory, then verify the
    // write is withheld when validation fails.
    auto p = test::makeLoopCallProgram();
    Simulator sim(p, cfgFor(ValidationMode::Full));

    // Replace helper body 'add r1,r1,r1' (4 bytes) with 'st r1,[r5+0]'
    // would not fit; instead just corrupt the add and check that the
    // legitimate store to kResultAddr never happens because the violation
    // fires earlier in program order... the corrupted block is the helper,
    // whose BB fails validation; the store in main never commits.
    const Addr victim = p.main().symbol("helper");
    sim.memory().write8(victim + 1, 9); // change destination register
    sim.engine()->invalidateCodeCache();

    const SimResult r = sim.run();
    ASSERT_TRUE(r.run.violation.has_value());
    EXPECT_EQ(sim.memory().read64(test::kResultAddr), 0u);
}

TEST(Engine, JumpToUnknownTargetDetected)
{
    // An indirect call whose runtime target is not in the annotated set.
    using namespace isa;
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.la(2, "good");
    const Addr site = a.callr(2);
    a.annotateIndirect(site, {"good"});
    a.halt();
    a.label("good");
    a.ret();
    a.label("evil"); // never annotated
    a.ret();
    prog::Program p;
    p.addModule(a.finalize("t", "main"));

    Simulator sim(p, cfgFor(ValidationMode::Full));
    // Redirect the call at run time by changing r2 before the call.
    const Addr evil = p.main().symbol("evil");
    sim.core().setPreStepHook([&](u64, Addr pc) {
        if (pc == site)
            sim.core().machine().setReg(2, evil);
    });
    const SimResult r = sim.run();
    ASSERT_TRUE(r.run.violation.has_value());
    EXPECT_NE(r.run.violation->reason.find("illegal transfer"),
              std::string::npos);
}

TEST(Engine, ReturnAddressOverwriteDetected)
{
    // Classic stack smash: overwrite the return address on the stack while
    // the helper runs; the return lands at an unexpected site.
    using namespace isa;
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.call("helper");
    a.movi(9, 1);
    a.halt();
    a.label("helper");
    a.addi(1, 1, 1);
    const Addr ret_pc = a.ret();
    a.label("gadget");
    a.movi(9, 666);
    a.halt();
    prog::Program p;
    p.addModule(a.finalize("t", "main"));

    Simulator sim(p, cfgFor(ValidationMode::Full));
    const Addr gadget = p.main().symbol("gadget");
    sim.core().setPreStepHook([&](u64, Addr pc) {
        if (pc == ret_pc) {
            const Addr sp = sim.core().machine().reg(isa::kRegSp);
            sim.memory().write64(sp, gadget); // smash the return address
        }
    });
    const SimResult r = sim.run();
    ASSERT_TRUE(r.run.violation.has_value());
}

TEST(Engine, SyscallDisableSkipsValidation)
{
    using namespace isa;
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.syscall(1); // disable REV
    a.movi(1, 7);
    a.jmp("next");
    a.label("next");
    a.syscall(2); // re-enable
    a.movi(2, 8);
    a.halt();
    prog::Program p;
    p.addModule(a.finalize("t", "main"));

    Simulator sim(p, cfgFor(ValidationMode::Full));
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    // Fewer blocks validated than branches committed (some bypassed).
    EXPECT_LT(r.rev.bbValidated, r.run.committedBranches);
}

TEST(Engine, CrossModuleCallsUseSag)
{
    // main calls a function in a second module; both tables are consulted.
    prog::Program p;
    {
        prog::Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(1, 5);
        a.call("stub");
        a.halt();
        a.label("stub");
        a.nop();
        a.ret();
        p.addModule(a.finalize("main", "main"));
    }
    // Patch: cross-module direct call needs the lib's address; build lib
    // first is awkward with labels, so call via register with annotation.
    Simulator sim0(p, cfgFor(ValidationMode::Full)); // ensure single works
    (void)sim0;

    prog::Program p2;
    Addr lib_entry = 0;
    {
        prog::Assembler lib(prog::Program{}.nextModuleBase());
        // placeholder -- replaced below
        (void)lib;
    }
    // Build the two-module program properly.
    {
        prog::Program tmp;
        prog::Assembler a(prog::kDefaultCodeBase);
        // main: callr to lib entry via immediate address.
        // lib loads at nextModuleBase of a single-module program; compute
        // it after main is finalized, so assemble lib first at a fixed
        // base beyond main's expected end.
        const Addr lib_base = 0x40000;
        prog::Assembler lib(lib_base);
        lib.label("libfn");
        lib.addi(1, 1, 100);
        lib.ret();

        a.label("main");
        a.movi(1, 1);
        a.movi(2, static_cast<i32>(lib_base));
        const Addr site = a.callr(2);
        // The target is cross-module.
        a.annotateIndirect(site, std::vector<std::string>{});
        a.halt();

        auto main_mod = a.finalize("main", "main");
        // Cross-module target annotation uses the address directly.
        main_mod.indirectTargets[site] = {lib_base};
        tmp.addModule(std::move(main_mod));
        tmp.addModule(lib.finalize("libm", "libfn"));
        p2 = std::move(tmp);
        lib_entry = lib_base;
    }

    Simulator sim(p2, cfgFor(ValidationMode::Full));
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    EXPECT_EQ(sim.core().machine().reg(1), 101u);
    EXPECT_GE(sim.engine()->sag().lookups(), r.run.committedBranches);
    (void)lib_entry;
}

TEST(Engine, CommitStallsAccumulateOnScMisses)
{
    auto p = test::makeIndirectDispatchProgram();
    Simulator sim(p, cfgFor(ValidationMode::Full));
    const SimResult r = sim.run();
    EXPECT_GT(r.rev.commitStallCycles, 0u);
}

TEST(Engine, SmallerScMissesMore)
{
    // A program with many distinct blocks: a tiny SC thrashes.
    using namespace isa;
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, 30); // outer iterations
    a.label("outer");
    for (int i = 0; i < 200; ++i) {
        a.addi(2, 2, 1);
        a.jmp("blk" + std::to_string(i));
        a.label("blk" + std::to_string(i));
    }
    a.addi(1, 1, -1);
    a.bne(1, 0, "outer");
    a.halt();
    prog::Program p;
    p.addModule(a.finalize("many", "main"));

    SimConfig small = cfgFor(ValidationMode::Full);
    small.rev.sc.sizeBytes = 1024; // 64 entries
    SimConfig big = cfgFor(ValidationMode::Full);
    big.rev.sc.sizeBytes = 32 * 1024;

    Simulator s1(p, small), s2(p, big);
    const SimResult r1 = s1.run();
    const SimResult r2 = s2.run();
    EXPECT_GT(r1.rev.scMisses(), r2.rev.scMisses());
    EXPECT_GE(r1.run.cycles, r2.run.cycles);
}

TEST(Engine, CfiOnlyCheapestFullMostThorough)
{
    auto p = test::makeIndirectDispatchProgram();
    Simulator full(p, cfgFor(ValidationMode::Full));
    Simulator cfi(p, cfgFor(ValidationMode::CfiOnly));
    const SimResult rf = full.run();
    const SimResult rc = cfi.run();
    // CFI-only probes the SC only at computed sites/returns.
    EXPECT_LT(rc.rev.bbValidated, rf.rev.bbValidated);
    EXPECT_LE(rc.scFillAccesses, rf.scFillAccesses);
}

} // namespace
} // namespace rev::core
