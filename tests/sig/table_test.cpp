/**
 * @file
 * Signature table build / encrypt / walk tests (Sec. V).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "program/interp.hpp"
#include "sig/sigstore.hpp"
#include "sig/table.hpp"
#include "testutil.hpp"

namespace rev::sig
{
namespace
{

using prog::Cfg;
using prog::TermKind;

struct Fixture
{
    prog::Program program;
    Cfg cfg;
    crypto::KeyVault vault{7};
    crypto::AesKey key{};
    SparseMemory mem;
    Addr tableBase = kSigTableRegion;

    explicit Fixture(prog::Program p, ValidationMode mode)
        : program(std::move(p)), cfg(prog::buildCfg(program.main()))
    {
        Rng rng(3);
        key = vault.generateModuleKey(rng);
        BuiltTable built =
            buildTable(program.main(), cfg, mode, vault, key, 99);
        mem.writeBytes(tableBase, built.bytes);
        stats = built.stats;
    }

    TableStats stats;
};

TEST(SigTable, HashBindsBytesAndAddresses)
{
    const u8 code[] = {1, 2, 3, 4, 5};
    const u32 h = bbHashBytes(code, sizeof(code), 0x100, 0x104, 5);
    EXPECT_EQ(h, bbHashBytes(code, sizeof(code), 0x100, 0x104, 5));
    // Different bytes, start, or term all change the hash.
    u8 mut[] = {1, 2, 3, 4, 6};
    EXPECT_NE(h, bbHashBytes(mut, sizeof(mut), 0x100, 0x104, 5));
    EXPECT_NE(h, bbHashBytes(code, sizeof(code), 0x101, 0x104, 5));
    EXPECT_NE(h, bbHashBytes(code, sizeof(code), 0x100, 0x105, 5));
}

TEST(SigTable, FullModeLookupEveryBlock)
{
    Fixture f(test::makeLoopCallProgram(), ValidationMode::Full);
    TableReader reader(f.mem, f.tableBase, f.vault);
    ASSERT_TRUE(reader.valid());
    EXPECT_EQ(reader.mode(), ValidationMode::Full);

    const auto &mod = f.program.main();
    for (const auto &bb : f.cfg.blocks()) {
        const LookupResult res = reader.lookup(bb.term, bbHash(mod, bb, 5), mod.base);
        ASSERT_TRUE(res.found) << "block @ 0x" << std::hex << bb.start;
        EXPECT_EQ(res.hash, bbHash(mod, bb, 5));
        EXPECT_EQ(res.termKind, bb.kind);
        // Full mode: explicit targets only for computed sites.
        EXPECT_TRUE(res.targets.empty());
        // Return-site predecessors surface.
        EXPECT_EQ(res.retPreds.size(), f.cfg.retPreds(bb).size());
    }
}

TEST(SigTable, UnknownBlockNotFound)
{
    Fixture f(test::makeLoopCallProgram(), ValidationMode::Full);
    TableReader reader(f.mem, f.tableBase, f.vault);
    const auto &mod = f.program.main();
    EXPECT_FALSE(reader.lookup(mod.base + 3, 0x12345678u, mod.base).found);
}

TEST(SigTable, ComputedTargetsInFullMode)
{
    Fixture f(test::makeIndirectDispatchProgram(), ValidationMode::Full);
    TableReader reader(f.mem, f.tableBase, f.vault);
    const auto &mod = f.program.main();

    for (const auto &bb : f.cfg.blocks()) {
        if (bb.kind != TermKind::CallIndirect)
            continue;
        const LookupResult res = reader.lookup(bb.term, bbHash(mod, bb, 5), mod.base);
        ASSERT_TRUE(res.found);
        ASSERT_EQ(res.targets.size(), 2u);
        EXPECT_TRUE(std::is_permutation(res.targets.begin(),
                                        res.targets.end(),
                                        f.cfg.succs(bb).begin()));
    }
}

TEST(SigTable, AggressiveModeListsAllBranchTargets)
{
    Fixture f(test::makeLoopCallProgram(), ValidationMode::Aggressive);
    TableReader reader(f.mem, f.tableBase, f.vault);
    const auto &mod = f.program.main();

    for (const auto &bb : f.cfg.blocks()) {
        const LookupResult res = reader.lookup(bb.term, bbHash(mod, bb, 5), mod.base);
        ASSERT_TRUE(res.found);
        if (bb.kind == TermKind::Return) {
            EXPECT_TRUE(res.targets.empty());
        } else {
            ASSERT_EQ(res.targets.size(), f.cfg.succs(bb).size());
            EXPECT_TRUE(std::is_permutation(res.targets.begin(),
                                            res.targets.end(),
                                            f.cfg.succs(bb).begin()));
        }
    }
}

TEST(SigTable, CfiOnlyRecordsComputedAndReturnSitesOnly)
{
    Fixture f(test::makeIndirectDispatchProgram(), ValidationMode::CfiOnly);
    TableReader reader(f.mem, f.tableBase, f.vault);
    const auto &mod = f.program.main();

    for (const auto &bb : f.cfg.blocks()) {
        const LookupResult res = reader.lookupSite(bb.term, mod.base);
        if (termIsComputed(bb.kind) || bb.kind == TermKind::Return) {
            ASSERT_TRUE(res.found) << "site 0x" << std::hex << bb.term;
            ASSERT_EQ(res.targets.size(), f.cfg.succs(bb).size());
            EXPECT_TRUE(std::is_permutation(res.targets.begin(),
                                            res.targets.end(),
                                            f.cfg.succs(bb).begin()));
        } else {
            EXPECT_FALSE(res.found);
        }
    }
}

TEST(SigTable, TamperedTableBreaksLookup)
{
    Fixture f(test::makeLoopCallProgram(), ValidationMode::Full);
    const auto &mod = f.program.main();
    const auto &bb = f.cfg.blocks().front();

    TableReader clean(f.mem, f.tableBase, f.vault);
    const LookupResult before = clean.lookup(bb.term, bbHash(mod, bb, 5), mod.base);
    ASSERT_TRUE(before.found);

    // Snapshot clean lookups, then flip one bit in the hash field of the
    // first block's bucket-slot record.
    std::vector<LookupResult> snapshot;
    for (const auto &blk : f.cfg.blocks())
        snapshot.push_back(clean.lookup(blk.term, bbHash(mod, blk, 5), mod.base));

    const u64 bucket = (bb.term - mod.base) % f.stats.numBuckets;
    const Addr victim = f.tableBase + kHeaderBytes +
                        bucket * recordSize(ValidationMode::Full) + 4;
    f.mem.write8(victim, f.mem.read8(victim) ^ 0x40);

    TableReader tampered(f.mem, f.tableBase, f.vault);
    ASSERT_TRUE(tampered.valid()); // header untouched
    // Tampering with reference data must be observable: at least one
    // lookup changes (found-ness or hash).
    bool any_changed = false;
    std::size_t i = 0;
    for (const auto &blk : f.cfg.blocks()) {
        const LookupResult &a = snapshot[i++];
        const LookupResult b =
            tampered.lookup(blk.term, bbHash(mod, blk, 5), mod.base);
        if (a.found != b.found || (b.found && a.hash != b.hash))
            any_changed = true;
    }
    EXPECT_TRUE(any_changed);
}

TEST(SigTable, TamperedHeaderKeyRejected)
{
    Fixture f(test::makeLoopCallProgram(), ValidationMode::Full);
    // Corrupt the wrapped key in the header.
    f.mem.write8(f.tableBase + 30, f.mem.read8(f.tableBase + 30) ^ 1);
    TableReader reader(f.mem, f.tableBase, f.vault);
    EXPECT_FALSE(reader.valid());
}

TEST(SigTable, WrongCpuCannotUseTable)
{
    Fixture f(test::makeLoopCallProgram(), ValidationMode::Full);
    crypto::KeyVault other_cpu(12345);
    TableReader reader(f.mem, f.tableBase, other_cpu);
    EXPECT_FALSE(reader.valid());
}

TEST(SigTable, TableIsActuallyEncryptedInRam)
{
    Fixture f(test::makeLoopCallProgram(), ValidationMode::Full);
    const auto &mod = f.program.main();
    // The plaintext hash of the entry block must not appear at any aligned
    // position of the RAM image body (probability of accidental match is
    // ~2^-32 per position).
    const u32 hash = bbHash(mod, f.cfg.blocks().front(), 5);
    const u64 size = f.stats.sizeBytes;
    int found = 0;
    for (u64 off = kHeaderBytes; off + 4 <= size; ++off) {
        u32 v = 0;
        for (int i = 3; i >= 0; --i)
            v = (v << 8) | f.mem.read8(f.tableBase + off + i);
        found += (v == hash);
    }
    EXPECT_EQ(found, 0);
}

TEST(SigTable, MemAccessAddressesAreWithinTable)
{
    Fixture f(test::makeLoopCallProgram(), ValidationMode::Full);
    TableReader reader(f.mem, f.tableBase, f.vault);
    const auto &mod = f.program.main();
    for (const auto &bb : f.cfg.blocks()) {
        const LookupResult res = reader.lookup(bb.term, bbHash(mod, bb, 5), mod.base);
        ASSERT_TRUE(res.found);
        ASSERT_GE(res.memAddrs.size(), 1u); // direct-indexed bucket slot
        for (Addr a : res.memAddrs) {
            EXPECT_GE(a, f.tableBase);
            EXPECT_LT(a, f.tableBase + f.stats.sizeBytes);
        }
    }
}

TEST(SigTable, SpillChainsForManyTargets)
{
    // A computed jump with 9 targets forces several continuation records.
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, 0);
    const Addr site = a.jmpr(2);
    std::vector<std::string> labels;
    for (int i = 0; i < 9; ++i) {
        std::string l = "t";
        l += std::to_string(i);
        labels.push_back(l);
        a.label(l);
        a.addi(1, 1, i);
        a.halt();
    }
    a.annotateIndirect(site, labels);
    prog::Program p;
    p.addModule(a.finalize("many", "main"));

    Fixture f(std::move(p), ValidationMode::Full);
    TableReader reader(f.mem, f.tableBase, f.vault);
    const auto &mod = f.program.main();

    const auto *bb = f.cfg.blockAtStart(mod.symbol("main"));
    ASSERT_NE(bb, nullptr);
    const LookupResult res = reader.lookup(bb->term, bbHash(mod, *bb, 5), mod.base);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.targets.size(), 9u);
    EXPECT_GT(f.stats.contRecords, 2u);
}

TEST(SigTable, AggressiveSpillPackingWithTargetsAndPreds)
{
    // A computed call with 7 targets whose return site collects the RETs
    // of all 7 callees: aggressive entries hold 2 targets inline and pack
    // 4 slots per continuation with separate target/pred counts.
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    const Addr site = a.callr(2);
    std::vector<std::string> fns;
    a.jmp("end");
    for (int i = 0; i < 7; ++i) {
        fns.emplace_back("f") += std::to_string(i);
        a.label(fns.back());
        a.addi(1, 1, i);
        a.ret();
    }
    a.label("end");
    a.halt();
    a.annotateIndirect(site, fns);
    prog::Program p;
    p.addModule(a.finalize("agg", "main"));

    Fixture f(std::move(p), ValidationMode::Aggressive);
    TableReader reader(f.mem, f.tableBase, f.vault);
    const auto &mod = f.program.main();

    // The CALLR block lists all 7 targets.
    const auto *callbb = f.cfg.blockAtStart(mod.base);
    ASSERT_NE(callbb, nullptr);
    auto res = reader.lookup(callbb->term, bbHash(mod, *callbb, 5),
                             mod.base);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.targets.size(), 7u);

    // The return site lists all 7 RET predecessors (plus its own jump
    // target in aggressive mode).
    const auto *rb = f.cfg.blockAtStart(callbb->end);
    ASSERT_NE(rb, nullptr);
    res = reader.lookup(rb->term, bbHash(mod, *rb, 5), mod.base);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.retPreds.size(), 7u);
}

TEST(SigTable, CrossModuleTargetsDecodeToAbsoluteAddresses)
{
    // A computed call annotated with a target in another module: the
    // 24-bit program-relative slots must decode to the absolute address.
    prog::Program p;
    {
        prog::Assembler lib(0x200000);
        lib.label("libfn");
        lib.ret();
        p.addModule(lib.finalize("lib", "libfn"));
    }
    const Addr libfn = p.modules()[0].symbol("libfn");
    {
        prog::Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        const Addr site = a.callr(2);
        a.halt();
        auto m = a.finalize("main", "main");
        m.indirectTargets[site] = {libfn};
        // main must be module 0 for Fixture::main()
        prog::Program q;
        q.addModule(std::move(m));
        q.addModule(std::move(p.modules()[0]));
        p = std::move(q);
    }

    Fixture f(std::move(p), ValidationMode::Full);
    TableReader reader(f.mem, f.tableBase, f.vault);
    const auto &mod = f.program.main();
    const auto *bb = f.cfg.blockAtStart(mod.base);
    ASSERT_NE(bb, nullptr);
    const auto res =
        reader.lookup(bb->term, bbHash(mod, *bb, 5), mod.base);
    ASSERT_TRUE(res.found);
    ASSERT_EQ(res.targets.size(), 1u);
    EXPECT_EQ(res.targets[0], libfn);
}

TEST(SigTable, RecordSizesPerMode)
{
    EXPECT_EQ(recordSize(ValidationMode::Full), 11u);
    EXPECT_EQ(recordSize(ValidationMode::Aggressive), 17u);
    EXPECT_EQ(recordSize(ValidationMode::CfiOnly), 12u);
}

TEST(SigTable, SizeOrderingAcrossModes)
{
    auto p1 = test::makeIndirectDispatchProgram();
    auto p2 = test::makeIndirectDispatchProgram();
    auto p3 = test::makeIndirectDispatchProgram();
    Fixture full(std::move(p1), ValidationMode::Full);
    Fixture agg(std::move(p2), ValidationMode::Aggressive);
    Fixture cfi(std::move(p3), ValidationMode::CfiOnly);

    // Aggressive > Full > CFI-only, as in the paper.
    EXPECT_GT(agg.stats.sizeBytes, full.stats.sizeBytes);
    EXPECT_GT(full.stats.sizeBytes, cfi.stats.sizeBytes);
}

TEST(SigTable, NoTruncatedHashDuplicatesInSmallPrograms)
{
    Fixture f(test::makeLoopCallProgram(), ValidationMode::Full);
    EXPECT_EQ(f.stats.hashDuplicates, 0u);
}

TEST(SigTable, TamperedContCountsStayBounded)
{
    // A tampered continuation record can advertise more target/pred
    // slots than the record layout carries (an aggressive-mode count
    // byte encodes up to 7+7 against 4 physical slots). The walker must
    // clamp, not index past the slot-offset table: large sig-corrupt
    // campaigns hit exactly this. AES-CTR is malleable, so flipping
    // ciphertext bits flips the same plaintext bits — sweeping every
    // XOR mask over the first continuation record's kind/count byte
    // covers all 255 corrupt decodings, including kind=cont with both
    // counts maxed.
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    const Addr site = a.callr(2);
    std::vector<std::string> fns;
    a.jmp("end");
    for (int i = 0; i < 7; ++i) {
        fns.emplace_back("f") += std::to_string(i);
        a.label(fns.back());
        a.addi(1, 1, i);
        a.ret();
    }
    a.label("end");
    a.halt();
    a.annotateIndirect(site, fns);
    prog::Program p;
    p.addModule(a.finalize("agg", "main"));

    Fixture f(std::move(p), ValidationMode::Aggressive);
    TableReader reader(f.mem, f.tableBase, f.vault);
    const auto &mod = f.program.main();

    const auto *callbb = f.cfg.blockAtStart(mod.base);
    ASSERT_NE(callbb, nullptr);
    const u32 hash = bbHash(mod, *callbb, 5);
    const LookupResult clean = reader.lookup(callbb->term, hash, mod.base);
    ASSERT_TRUE(clean.found);
    EXPECT_EQ(clean.targets.size(), 7u);
    // memAddrs[0] is the primary record, [1] its first continuation.
    ASSERT_GE(clean.memAddrs.size(), 2u);
    const Addr cont_kind_byte = clean.memAddrs[1];

    for (unsigned mask = 1; mask < 256; ++mask) {
        f.mem.write8(cont_kind_byte,
                     f.mem.read8(cont_kind_byte) ^ static_cast<u8>(mask));
        const LookupResult res =
            reader.lookup(callbb->term, hash, mod.base);
        // However the record decodes, one walked record may contribute
        // at most its physical slots: 2 inline on the primary plus 4
        // per continuation visited.
        EXPECT_LE(res.targets.size() + res.retPreds.size(),
                  2 + 4 * res.memAddrs.size())
            << "mask 0x" << std::hex << mask;
        f.mem.write8(cont_kind_byte,
                     f.mem.read8(cont_kind_byte) ^ static_cast<u8>(mask));
    }

    // Restored table reads clean again.
    const LookupResult after = reader.lookup(callbb->term, hash, mod.base);
    EXPECT_EQ(after.targets.size(), 7u);
}

} // namespace
} // namespace rev::sig
