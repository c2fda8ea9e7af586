/**
 * @file
 * Dynamic code support tests (Sec. IV.E):
 *  - trusted code generation with table regeneration before use,
 *  - the REV disable/enable syscalls around untrusted self-modification,
 *  - external-interrupt handling at validated block boundaries.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/simulator.hpp"
#include "program/assembler.hpp"
#include "testutil.hpp"

namespace rev::core
{
namespace
{

/**
 * Main spins on a function-pointer slot in data: initially it points at a
 * stub returning 0; the "JIT" later installs a generated module and
 * repoints the slot. The callr site's annotations are updated by the
 * trusted toolchain before the tables are rebuilt.
 */
struct JitScenario
{
    prog::Program program;
    Addr site = 0;
    Addr slotAddr = 0;
};

JitScenario
buildJitMain()
{
    using namespace isa;
    JitScenario sc;
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(10, 6); // iterations
    a.label("loop");
    a.la(4, "slot");
    a.ld(4, 4, 0);
    sc.site = a.callr(4);
    a.annotateIndirect(sc.site, {"stub"});
    a.addi(10, 10, -1);
    a.bne(10, 0, "loop");
    a.halt();

    a.label("stub");
    a.movi(1, 0);
    a.ret();

    a.beginData();
    a.align(8);
    a.label("slot");
    a.word64Label("stub");

    sc.program.addModule(a.finalize("main", "main"));
    sc.slotAddr = sc.program.main().symbol("slot");
    return sc;
}

/** The generated ("JIT output") module: returns 123 in r1. */
prog::Module
buildJitModule(Addr base)
{
    prog::Assembler a(base);
    a.label("jitfn");
    a.movi(1, 123);
    a.ret();
    return a.finalize("jit", "jitfn");
}

TEST(DynamicCode, TrustedRegenerationValidatesNewCode)
{
    JitScenario sc = buildJitMain();
    const Addr jit_base = 0x80000;

    SimConfig cfg;
    Simulator sim(sc.program, cfg);

    bool installed = false;
    sim.core().setPreStepHook([&](u64 idx, Addr) {
        if (idx == 30 && !installed) {
            installed = true;
            // --- the trusted OS/JIT path (Sec. IV.E, option 2) ---------
            prog::Module jit = buildJitModule(jit_base);
            const Addr jitfn = jit.symbol("jitfn");
            sc.program.addModule(std::move(jit));
            // Extend the dispatch site's legitimate targets.
            sc.program.modules()[0].indirectTargets[sc.site].push_back(
                jitfn);
            // Regenerate tables before the code may run, then patch the
            // function-pointer slot the program reads.
            sim.reloadProgram();
            sim.memory().write64(sc.slotAddr, jitfn);
        }
    });

    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value())
        << r.run.violation->reason;
    EXPECT_TRUE(installed);
    // The generated function really ran, validated.
    EXPECT_EQ(sim.core().machine().reg(1), 123u);
    EXPECT_EQ(sim.sigStore()->moduleSigs().size(), 2u);
}

/**
 * Pre-step hook running the trusted JIT path of the test above at
 * instruction 30: link the generated module into @p sc's program, extend
 * the dispatch site's targets, reload, and repoint the slot.
 */
cpu::Core::PreStepHook
jitHook(Simulator &sim, JitScenario &sc, bool &installed)
{
    return [&sim, &sc, &installed](u64 idx, Addr) {
        if (idx != 30 || installed)
            return;
        installed = true;
        prog::Module jit = buildJitModule(0x80000);
        const Addr jitfn = jit.symbol("jitfn");
        sc.program.addModule(std::move(jit));
        sc.program.modules()[0].indirectTargets[sc.site].push_back(jitfn);
        sim.reloadProgram();
        sim.memory().write64(sc.slotAddr, jitfn);
    };
}

/** Every table image of @p store, as loaded in RAM. */
std::vector<u8>
tableBytes(const sig::SigStore &store)
{
    SparseMemory mem;
    store.loadInto(mem);
    std::vector<u8> out;
    for (const sig::ModuleSig &ms : store.moduleSigs()) {
        const std::size_t at = out.size();
        out.resize(at + ms.stats.sizeBytes);
        mem.readBytes(ms.tableBase, out.data() + at, ms.stats.sizeBytes);
    }
    return out;
}

std::string
statsText(const Simulator &sim)
{
    std::ostringstream os;
    sim.dumpStats(os);
    return os.str();
}

TEST(DynamicCode, RebuildLeavesSharedPrototypeAndSiblingUntouched)
{
    JitScenario sc = buildJitMain();
    SimConfig cfg;
    const crypto::KeyVault vault(cfg.cpuSeed);
    const sig::SigStore proto(sc.program, cfg.mode, vault, cfg.toolchainSeed,
                              cfg.core.splitLimits, cfg.rev.chg.hashRounds);
    const std::vector<u8> proto_tables = tableBytes(proto);
    cfg.sigStorePrototype = &proto;

    // Reference: a simulator over the prototype that never links.
    Simulator ref(sc.program, cfg);
    const SimResult ref_run = ref.run();

    // Two simulators share the prototype's build; one links the JIT
    // module and rebuilds mid-run.
    Simulator linker(sc.program, cfg);
    Simulator sibling(sc.program, cfg);
    bool installed = false;
    linker.core().setPreStepHook(jitHook(linker, sc, installed));
    const SimResult lr = linker.run();
    ASSERT_TRUE(installed);
    EXPECT_FALSE(lr.run.violation.has_value()) << lr.run.violation->reason;
    EXPECT_EQ(linker.core().machine().reg(1), 123u);
    EXPECT_EQ(linker.sigStore()->moduleSigs().size(), 2u);

    // The sibling still runs on the prototype's build, exactly as the
    // reference did; the prototype's tables are byte-for-byte unchanged.
    ASSERT_EQ(sibling.sigStore()->moduleSigs().size(), 1u);
    EXPECT_EQ(&sibling.sigStore()->moduleSigs()[0], &proto.moduleSigs()[0]);
    const SimResult sr = sibling.run();
    EXPECT_FALSE(sr.run.violation.has_value());
    EXPECT_EQ(sr.run.instrs, ref_run.run.instrs);
    EXPECT_EQ(sr.run.cycles, ref_run.run.cycles);
    EXPECT_EQ(statsText(sibling), statsText(ref));
    EXPECT_EQ(proto.moduleSigs().size(), 1u);
    EXPECT_EQ(tableBytes(proto), proto_tables);
}

TEST(DynamicCode, ReloadAfterCaptureKeepsSnapshotTables)
{
    JitScenario sc = buildJitMain();
    const SimConfig cfg;
    Simulator cold(sc.program, cfg);
    const SimResult cold_run = cold.run();

    Simulator sim(sc.program, cfg);
    ASSERT_TRUE(sim.runUntil(20));
    const Snapshot snap = sim.capture();
    bool installed = false;
    sim.core().setPreStepHook(jitHook(sim, sc, installed));
    const SimResult r = sim.run();
    ASSERT_TRUE(installed);
    EXPECT_FALSE(r.run.violation.has_value()) << r.run.violation->reason;
    EXPECT_EQ(sim.core().machine().reg(1), 123u);
    EXPECT_EQ(sim.sigStore()->moduleSigs().size(), 2u);

    // Forks of the earlier snapshot validate against the tables captured
    // then, and finish exactly like a cold run of the unlinked program.
    EXPECT_EQ(snap.machine().sigStore()->moduleSigs().size(), 1u);
    auto fork = Simulator::forkFrom(snap);
    ASSERT_EQ(fork->sigStore()->moduleSigs().size(), 1u);
    const SimResult fr = fork->run();
    EXPECT_TRUE(fr.run.halted);
    EXPECT_FALSE(fr.run.violation.has_value());
    EXPECT_EQ(fr.run.instrs, cold_run.run.instrs);
    EXPECT_EQ(fr.run.cycles, cold_run.run.cycles);
    EXPECT_EQ(statsText(*fork), statsText(cold));

    // A fork may link on its own: it rebuilds privately too.
    auto linker = Simulator::forkFrom(snap);
    const Addr jitfn = sc.program.modules()[1].symbol("jitfn");
    bool relinked = false;
    linker->core().setPreStepHook([&](u64 idx, Addr) {
        if (idx == 30 && !relinked) {
            relinked = true;
            linker->reloadProgram();
            linker->memory().write64(sc.slotAddr, jitfn);
        }
    });
    const SimResult lr = linker->run();
    ASSERT_TRUE(relinked);
    EXPECT_FALSE(lr.run.violation.has_value()) << lr.run.violation->reason;
    EXPECT_EQ(linker->core().machine().reg(1), 123u);
    EXPECT_EQ(snap.machine().sigStore()->moduleSigs().size(), 1u);
}

TEST(DynamicCode, UnregisteredJitCodeIsRejected)
{
    JitScenario sc = buildJitMain();
    const Addr jit_base = 0x80000;

    SimConfig cfg;
    Simulator sim(sc.program, cfg);
    bool installed = false;
    sim.core().setPreStepHook([&](u64 idx, Addr) {
        if (idx == 30 && !installed) {
            installed = true;
            // Skip the trusted path: write the code and patch the slot
            // without regenerating any signatures.
            prog::Module jit = buildJitModule(jit_base);
            const Addr jitfn = jit.symbol("jitfn");
            sim.memory().writeBytes(jit.base, jit.image);
            sim.memory().write64(sc.slotAddr, jitfn);
        }
    });

    const SimResult r = sim.run();
    ASSERT_TRUE(r.run.violation.has_value());
}

TEST(DynamicCode, SyscallWindowAllowsSelfModification)
{
    // Trusted self-modifying code brackets itself with the REV
    // disable/enable system calls (Sec. IV.E option 1 / Sec. VII).
    using namespace isa;
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.syscall(1); // REV off
    // This block will be patched at run time; with REV off it commits
    // unvalidated.
    a.label("patchme");
    a.movi(1, 1);
    a.jmp("cont");
    a.label("cont");
    a.syscall(2); // REV back on
    a.movi(2, 2);
    a.halt();
    prog::Program p;
    p.addModule(a.finalize("selfmod", "main"));

    SimConfig cfg;
    Simulator sim(p, cfg);
    const Addr patch = p.main().symbol("patchme");
    sim.core().setPreStepHook([&](u64 idx, Addr) {
        if (idx == 1) {
            // Patch movi r1,1 -> movi r1,9 while REV is disabled.
            sim.memory().write8(patch + 2, 9);
            sim.engine()->invalidateCodeCache();
        }
    });
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    EXPECT_EQ(sim.core().machine().reg(1), 9u); // patched code ran
    EXPECT_EQ(sim.core().machine().reg(2), 2u); // validated epilogue ran
}

TEST(Interrupts, TakenAtValidatedBoundaries)
{
    auto p = test::makeLoopCallProgram();
    SimConfig cfg;
    cfg.core.interruptInterval = 50;
    Simulator sim(p, cfg);
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    EXPECT_GT(r.run.interrupts, 2u);
    // Result still correct despite the flushes.
    EXPECT_EQ(sim.memory().read64(test::kResultAddr), 110u);
}

TEST(Interrupts, CostCycles)
{
    auto p = test::makeLoopCallProgram();
    SimConfig quiet;
    SimConfig noisy;
    noisy.core.interruptInterval = 40;
    Simulator s1(p, quiet), s2(p, noisy);
    const SimResult r1 = s1.run();
    const SimResult r2 = s2.run();
    EXPECT_EQ(r1.run.interrupts, 0u);
    EXPECT_GT(r2.run.cycles, r1.run.cycles);
}

} // namespace
} // namespace rev::core
