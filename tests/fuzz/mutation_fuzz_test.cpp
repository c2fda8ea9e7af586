/**
 * @file
 * Mutation fuzzing — the central security property (Requirement R0):
 * ANY single-bit corruption of code that subsequently executes must be
 * detected by full validation, and the corrupted execution must never
 * taint memory beyond the rollback boundary.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/simulator.hpp"
#include "program/interp.hpp"
#include "workloads/generator.hpp"

namespace rev
{
namespace
{

workloads::WorkloadProfile
smallProfile(u64 seed)
{
    workloads::WorkloadProfile p;
    p.name = "mut" + std::to_string(seed);
    p.seed = seed;
    p.numFunctions = 64;
    p.entryFunctions = 4;
    p.callSpan = 16;
    p.hotReach = 16;
    p.mainIterations = 100;
    return p;
}

/** Byte offsets (module-relative) of code executed by a clean run. */
std::vector<u64>
executedCodeBytes(const prog::Program &program, u64 budget)
{
    SparseMemory mem;
    program.loadInto(mem);
    prog::Machine machine(program, mem);
    std::set<u64> offsets;
    const auto &mod = program.main();
    u64 steps = 0;
    while (!machine.halted() && steps < budget) {
        const Addr pc = machine.pc();
        const auto rec = machine.step();
        if (rec.invalid)
            break;
        for (unsigned b = 0; b < rec.ins.length(); ++b)
            offsets.insert(pc - mod.base + b);
        ++steps;
    }
    return {offsets.begin(), offsets.end()};
}

class MutationFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(MutationFuzz, EveryExecutedBitFlipIsDetected)
{
    const auto prof = smallProfile(GetParam());
    const prog::Program program = workloads::generateWorkload(prof);
    const auto executed = executedCodeBytes(program, 50'000);
    ASSERT_GT(executed.size(), 1000u);

    Rng rng(GetParam() * 31 + 7);
    int detected = 0;
    const int trials = 25;
    for (int t = 0; t < trials; ++t) {
        const u64 off = executed[rng.below(executed.size())];
        const u8 bit = static_cast<u8>(1u << rng.below(8));

        core::SimConfig cfg;
        cfg.core.maxInstrs = 120'000; // bound runaway corrupted control flow
        core::Simulator sim(program, cfg);
        const Addr victim = program.main().base + off;
        sim.memory().write8(victim, sim.memory().read8(victim) ^ bit);
        sim.engine()->invalidateCodeCache();

        const core::SimResult r = sim.run();
        if (r.run.violation)
            ++detected;
        else
            ADD_FAILURE() << "undetected flip: offset 0x" << std::hex
                          << off << " bit " << int(bit);
    }
    EXPECT_EQ(detected, trials);
}

TEST_P(MutationFuzz, DispatchTableCorruptionIsDetected)
{
    const auto prof = smallProfile(GetParam() ^ 0xfeed);
    const prog::Program program = workloads::generateWorkload(prof);
    const Addr table = program.main().symbol("entry_table");

    // The sticky dispatcher reads low-indexed slots first; slot 0 is
    // always consulted. Redirect it far outside known code.
    for (int bit : {20, 21}) {
        core::SimConfig cfg;
        cfg.core.maxInstrs = 120'000;
        core::Simulator sim(program, cfg);
        sim.memory().write64(table,
                             sim.memory().read64(table) ^ (1ull << bit));
        const core::SimResult r = sim.run();
        EXPECT_TRUE(r.run.violation.has_value()) << "bit " << bit;
    }
}

TEST_P(MutationFuzz, SignatureTableCorruptionNeverHelpsAttacker)
{
    // Corrupting the encrypted reference data can only cause false
    // rejections, never acceptance of modified code.
    const auto prof = smallProfile(GetParam() ^ 0xbeef);
    const prog::Program program = workloads::generateWorkload(prof);

    Rng rng(GetParam() * 13);
    core::SimConfig cfg;
    cfg.core.maxInstrs = 60'000;
    core::Simulator sim(program, cfg);
    const auto &ms = sim.sigStore()->moduleSigs().front();

    // Corrupt several random bytes of the encrypted body.
    for (int i = 0; i < 8; ++i) {
        const Addr a = ms.tableBase + sig::kHeaderBytes +
                       rng.below(ms.stats.sizeBytes - sig::kHeaderBytes);
        sim.memory().write8(a, sim.memory().read8(a) ^ 0xff);
    }
    const core::SimResult r = sim.run();
    // Either the run trips over a corrupted reference (false rejection,
    // fail-closed) or the corrupted records were never consulted; memory
    // was never tainted by unvalidated code either way.
    if (!r.run.violation) {
        EXPECT_TRUE(r.run.halted || r.run.instrs >= cfg.core.maxInstrs);
    }
}

TEST(TableWalkerRobustness, CorruptChainsNeverHang)
{
    // Storm of random table-body corruptions: every lookup must
    // terminate (bounded walks) and either fail or return data -- never
    // loop on a tampered "next" chain.
    const auto prof = smallProfile(7);
    const prog::Program program = workloads::generateWorkload(prof);
    crypto::KeyVault vault(1);
    sig::SigStore store(program, sig::ValidationMode::Full, vault);
    SparseMemory mem;
    store.loadInto(mem);
    const auto &ms = store.moduleSigs().front();

    Rng rng(424242);
    for (int storm = 0; storm < 40; ++storm) {
        for (int i = 0; i < 64; ++i) {
            const Addr a =
                ms.tableBase + sig::kHeaderBytes +
                rng.below(ms.stats.sizeBytes - sig::kHeaderBytes);
            mem.write8(a, static_cast<u8>(rng.next()));
        }
        sig::TableReader reader(mem, ms.tableBase, vault);
        if (!reader.valid())
            continue;
        for (int q = 0; q < 50; ++q) {
            const auto &bb =
                ms.cfg->blocks()[rng.below(ms.cfg->blocks().size())];
            (void)reader.lookup(bb.term,
                                sig::bbHash(*ms.module, bb, 5),
                                ms.module->base); // must terminate
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz,
                         ::testing::Values(101u, 202u, 303u));

} // namespace
} // namespace rev
