/**
 * @file
 * SigStore (trusted linker/loader) tests.
 */

#include <gtest/gtest.h>

#include "sig/sigstore.hpp"
#include "testutil.hpp"

namespace rev::sig
{
namespace
{

prog::Program
makeTwoModuleProgram()
{
    prog::Program p;
    {
        prog::Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(1, 1);
        a.halt();
        p.addModule(a.finalize("main", "main"));
    }
    {
        prog::Assembler a(p.nextModuleBase());
        a.label("libfn");
        a.addi(1, 1, 7);
        a.ret();
        p.addModule(a.finalize("libm", "libfn"));
    }
    return p;
}

TEST(SigStore, OneTablePerModule)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);
    EXPECT_EQ(store.moduleSigs().size(), 2u);
}

TEST(SigStore, TablesDoNotOverlap)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);
    const auto &sigs = store.moduleSigs();
    const Addr end0 = sigs[0].tableBase + sigs[0].stats.sizeBytes;
    EXPECT_GE(sigs[1].tableBase, end0);
}

TEST(SigStore, LoadedTablesAreReadable)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);

    SparseMemory mem;
    store.loadInto(mem);
    for (const auto &sig : store.moduleSigs()) {
        TableReader reader(mem, sig.tableBase, vault);
        ASSERT_TRUE(reader.valid());
        for (const auto &bb : sig.cfg->blocks()) {
            EXPECT_TRUE(reader
                            .lookup(bb.term, bbHash(*sig.module, bb, 5), sig.module->base)
                            .found);
        }
    }
}

TEST(SigStore, FindByCode)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);

    const auto *m0 = store.findByCode(p.modules()[0].base);
    const auto *m1 = store.findByCode(p.modules()[1].base);
    ASSERT_NE(m0, nullptr);
    ASSERT_NE(m1, nullptr);
    EXPECT_NE(m0, m1);
    EXPECT_EQ(store.findByCode(0xdead0000), nullptr);
}

TEST(SigStore, PerModuleKeysDiffer)
{
    // Decrypting module B's table while pretending it is module A's must
    // fail: keys are distinct. We verify indirectly: swap the two table
    // bodies in RAM and observe lookups break.
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);
    SparseMemory mem;
    store.loadInto(mem);

    const auto &s0 = store.moduleSigs()[0];
    const auto &s1 = store.moduleSigs()[1];
    // Copy s1's body over s0's body (headers stay put).
    const u64 body0 = s0.stats.sizeBytes - kHeaderBytes;
    for (u64 i = 0; i < std::min(body0, s1.stats.sizeBytes - kHeaderBytes);
         ++i) {
        mem.write8(s0.tableBase + kHeaderBytes + i,
                   mem.read8(s1.tableBase + kHeaderBytes + i));
    }
    TableReader reader(mem, s0.tableBase, vault);
    ASSERT_TRUE(reader.valid());
    const auto &bb = s0.cfg->blocks().front();
    const auto res = reader.lookup(bb.term, bbHash(*s0.module, bb, 5), s0.module->base);
    // With a foreign body decrypted under the wrong key, the walk cannot
    // produce this module's reference data.
    if (res.found) {
        EXPECT_NE(res.hash, bbHash(*s0.module, bb, 5));
    }
}

TEST(SigStore, TotalBytesMatchesStats)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);
    u64 sum = 0;
    for (const auto &sig : store.moduleSigs())
        sum += sig.stats.sizeBytes;
    EXPECT_EQ(store.totalTableBytes(), sum);
}

/** FNV-1a 64 over every table image of @p store, as loaded in RAM. */
u64
tablesDigest(const SigStore &store)
{
    SparseMemory mem;
    store.loadInto(mem);
    u64 h = 0xcbf29ce484222325ULL;
    for (const auto &sig : store.moduleSigs()) {
        std::vector<u8> bytes(sig.stats.sizeBytes);
        mem.readBytes(sig.tableBase, bytes.data(), bytes.size());
        for (u8 b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

TEST(SigStore, CopiesShareTheBuild)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    const SigStore store(p, ValidationMode::Full, vault);
    const SigStore copy = store;
    for (std::size_t i = 0; i < store.moduleSigs().size(); ++i)
        EXPECT_EQ(&copy.moduleSigs()[i], &store.moduleSigs()[i]);
}

TEST(SigStore, DonorSharesCfgsAndHashes)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    const SigStore full(p, ValidationMode::Full, vault);
    const SigStore agg(p, ValidationMode::Aggressive, vault, 1, {}, 5,
                       &full);
    const SigStore cfi(p, ValidationMode::CfiOnly, vault, 1, {}, 5, &full);
    for (std::size_t i = 0; i < full.moduleSigs().size(); ++i) {
        EXPECT_EQ(agg.moduleSigs()[i].cfg, full.moduleSigs()[i].cfg);
        EXPECT_EQ(cfi.moduleSigs()[i].cfg, full.moduleSigs()[i].cfg);
        EXPECT_EQ(agg.moduleSigs()[i].blockHashes,
                  full.moduleSigs()[i].blockHashes);
    }
    // Different hash rounds: the CFGs still come from the donor, the
    // hashes do not.
    const SigStore r3(p, ValidationMode::Full, vault, 1, {}, 3, &full);
    EXPECT_EQ(r3.moduleSigs()[0].cfg, full.moduleSigs()[0].cfg);
    EXPECT_NE(r3.moduleSigs()[0].blockHashes,
              full.moduleSigs()[0].blockHashes);
}

TEST(SigStore, RebuildIsCopyOnWrite)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    const SigStore store(p, ValidationMode::Full, vault);
    const u64 before = tablesDigest(store);

    SigStore copy = store;
    copy.rebuild(p);
    // Fresh keys and nonces: the copy's tables change...
    EXPECT_NE(tablesDigest(copy), before);
    // ...and the original's build is untouched.
    EXPECT_EQ(tablesDigest(store), before);
    EXPECT_NE(&copy.moduleSigs()[0], &store.moduleSigs()[0]);
}

TEST(SigStore, RebuildKeysFollowTheBuildGeneration)
{
    // A copy carries its source's build generation, so rebuilding a copy
    // draws exactly the keys and nonces the source's own rebuild would.
    // The pinned digests are the tables of the original key schedule:
    // construction = generation 0, each rebuild the next.
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);
    EXPECT_EQ(tablesDigest(store), 0xd1cbd6e95e30e54cULL);
    SigStore copy = store;
    copy.rebuild(p);
    store.rebuild(p);
    EXPECT_EQ(tablesDigest(copy), tablesDigest(store));
    EXPECT_EQ(tablesDigest(copy), 0xffa0955fa14cd4efULL);
    copy.rebuild(p);
    EXPECT_EQ(tablesDigest(copy), 0x1c33b969ee4b86a9ULL);
}

} // namespace
} // namespace rev::sig
