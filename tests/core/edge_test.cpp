/**
 * @file
 * Edge-case coverage of the REV machinery: SAG pressure beyond its B
 * register pairs (Sec. IV.B exception path), CHG latencies exceeding the
 * pipeline depth (Sec. VI), early-exit table walks, and validation with
 * interrupts + attacks combined.
 */

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "program/assembler.hpp"
#include "sig/table.hpp"
#include "testutil.hpp"

namespace rev::core
{
namespace
{

/** A program of @p n tiny modules, main calling each once via CALLR. */
prog::Program
makeManyModuleProgram(unsigned n)
{
    prog::Program p;
    std::vector<Addr> entries;

    // Library modules first (fixed bases).
    Addr base = 0x40000;
    std::vector<prog::Module> libs;
    for (unsigned i = 0; i < n; ++i) {
        prog::Assembler a(base);
        a.label("f");
        a.addi(1, 1, static_cast<i32>(i + 1));
        a.ret();
        libs.push_back(a.finalize("lib" + std::to_string(i), "f"));
        entries.push_back(libs.back().symbol("f"));
        base += 0x1000;
    }

    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, 0);
    for (unsigned i = 0; i < n; ++i) {
        a.la(2, "tbl");
        a.ld(2, 2, static_cast<i32>(8 * i));
        const Addr site = a.callr(2);
        a.annotateIndirect(site, {});
        // patched below
        (void)site;
    }
    a.halt();
    a.beginData();
    a.align(8);
    a.label("tbl");
    for (Addr e : entries)
        a.word64(e);

    auto main_mod = a.finalize("main", "main");
    // Annotate each CALLR with its one cross-module target.
    {
        unsigned i = 0;
        for (auto &[site, targets] : main_mod.indirectTargets)
            targets = {entries[i++]};
    }
    p.addModule(std::move(main_mod));
    for (auto &m : libs)
        p.addModule(std::move(m));
    return p;
}

TEST(SagPressure, MoreModulesThanRegistersStillValidates)
{
    // 24 modules vs B = 16 SAG entries: the exception handler refills
    // round-robin; everything still authenticates.
    auto p = makeManyModuleProgram(24);
    SimConfig cfg;
    cfg.rev.sagEntries = 16;
    Simulator sim(p, cfg);
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value())
        << r.run.violation->reason;
    EXPECT_GT(r.rev.sagExceptions, 0u);
    EXPECT_EQ(sim.core().machine().reg(1), 24u * 25u / 2);
}

TEST(SagPressure, EnoughRegistersMeansNoExceptions)
{
    auto p = makeManyModuleProgram(12);
    SimConfig cfg;
    cfg.rev.sagEntries = 16;
    Simulator sim(p, cfg);
    const SimResult r = sim.run();
    EXPECT_FALSE(r.run.violation.has_value());
    EXPECT_EQ(r.rev.sagExceptions, 0u);
}

TEST(SagPressure, ExceptionsCostCycles)
{
    auto p = makeManyModuleProgram(24);
    SimConfig small;
    small.rev.sagEntries = 4;
    SimConfig big;
    big.rev.sagEntries = 32;
    Simulator s1(p, small), s2(p, big);
    const SimResult r1 = s1.run();
    const SimResult r2 = s2.run();
    EXPECT_GT(r1.rev.sagExceptions, r2.rev.sagExceptions);
    EXPECT_GT(r1.run.cycles, r2.run.cycles);
}

TEST(ChgLatency, BeyondPipelineDepthStallsCommit)
{
    // A hot loop where commit trails fetch by well under the ROB-bounded
    // fetch-ahead window (~90 cycles): a digest latency beyond that window
    // must gate every block's commit.
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, 500);
    a.label("loop");
    a.addi(2, 2, 1);
    a.addi(3, 3, 1);
    a.addi(1, 1, -1);
    a.bne(1, 0, "loop");
    a.halt();
    prog::Program p;
    p.addModule(a.finalize("hot", "main"));

    SimConfig fast;
    fast.rev.chg.latency = 16; // H == S: fully overlapped
    SimConfig slow;
    slow.rev.chg.latency = 240; // H >> fetch-ahead window

    Simulator s1(p, fast), s2(p, slow);
    const SimResult r1 = s1.run();
    const SimResult r2 = s2.run();
    EXPECT_FALSE(r2.run.violation.has_value());
    EXPECT_GT(r2.rev.commitStallCycles, r1.rev.commitStallCycles);
    EXPECT_GT(r2.run.cycles, r1.run.cycles);
}

TEST(WalkNeeds, EarlyExitShortensSpillWalks)
{
    // A site with many targets: a walk that needs the *first* target must
    // read fewer records than an exhaustive walk.
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    const Addr site = a.jmpr(2);
    std::vector<std::string> labels;
    for (int i = 0; i < 12; ++i) {
        labels.push_back("t" + std::to_string(i));
        a.label(labels.back());
        a.addi(1, 1, 1);
        a.halt();
    }
    a.annotateIndirect(site, labels);
    prog::Program p;
    p.addModule(a.finalize("many", "main"));

    crypto::KeyVault vault(1);
    sig::SigStore store(p, sig::ValidationMode::Full, vault);
    SparseMemory mem;
    store.loadInto(mem);
    const auto &ms = store.moduleSigs().front();
    sig::TableReader reader(mem, ms.tableBase, vault);

    const auto *bb = ms.cfg->blockAtStart(p.main().base);
    ASSERT_NE(bb, nullptr);
    const u32 hash = sig::bbHash(p.main(), *bb, 5);

    const auto full_walk = reader.lookup(bb->term, hash, p.main().base);
    ASSERT_TRUE(full_walk.found);
    EXPECT_EQ(full_walk.targets.size(), 12u);

    sig::WalkNeeds needs;
    needs.target = bb->succs.front();
    const auto short_walk =
        reader.lookup(bb->term, hash, p.main().base, &needs);
    ASSERT_TRUE(short_walk.found);
    EXPECT_LT(short_walk.memAddrs.size(), full_walk.memAddrs.size());
}

TEST(InterruptsAndAttacks, DetectionUnaffectedByInterrupts)
{
    // The ROP scenario from the attack tests, with aggressive external
    // interrupts: detection and containment still hold.
    using namespace isa;
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(5, static_cast<i32>(prog::kHeapBase));
    a.movi(3, 50);
    a.label("loop"); // busy loop so interrupts actually fire
    a.addi(3, 3, -1);
    a.bne(3, 0, "loop");
    a.call("worker");
    a.halt();
    a.label("worker");
    a.addi(1, 1, 1);
    const Addr ret_pc = a.ret();
    a.label("gadget");
    a.movi(2, 666);
    a.st(2, 5, 0);
    a.halt();
    prog::Program p;
    p.addModule(a.finalize("t", "main"));

    SimConfig cfg;
    cfg.core.interruptInterval = 30;
    Simulator sim(p, cfg);
    const Addr gadget = p.main().symbol("gadget");
    sim.core().setPreStepHook([&](u64, Addr pc) {
        if (pc == ret_pc) {
            const Addr sp = sim.core().machine().reg(isa::kRegSp);
            sim.memory().write64(sp, gadget);
        }
    });
    const SimResult r = sim.run();
    EXPECT_GT(r.run.interrupts, 0u);
    ASSERT_TRUE(r.run.violation.has_value());
    EXPECT_EQ(sim.memory().read64(prog::kHeapBase), 0u);
}

TEST(ValidationBypass, DisabledRevHasNearZeroCost)
{
    // SYSCALL 1 right at entry: the whole run commits unvalidated; the
    // cycle count must be close to the base machine's.
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.syscall(1);
    a.movi(1, 2000);
    a.label("loop");
    a.addi(2, 2, 3);
    a.addi(1, 1, -1);
    a.bne(1, 0, "loop");
    a.halt();
    prog::Program p;
    p.addModule(a.finalize("t", "main"));

    SimConfig off;
    off.withRev = false;
    SimConfig bypass; // REV attached but disabled by the syscall
    Simulator s1(p, off), s2(p, bypass);
    const SimResult r1 = s1.run();
    const SimResult r2 = s2.run();
    EXPECT_EQ(r2.rev.scMisses(), 0u);
    EXPECT_NEAR(static_cast<double>(r2.run.cycles),
                static_cast<double>(r1.run.cycles),
                static_cast<double>(r1.run.cycles) * 0.02);
}

} // namespace
} // namespace rev::core
