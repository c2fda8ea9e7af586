/**
 * @file
 * Table-byte pinning: a digest of every signature-table image the
 * trusted toolchain builds for the 15 SPEC stand-ins in each validation
 * mode, plus a multi-module program whose returns cross module
 * boundaries. Block order, successor order and return-predecessor order
 * all shape the table bytes, so any change to the CFG derivation, the
 * program-wide return linking or the table layout shows here directly.
 *
 * On a mismatch the computed lines are written to
 * table_digests.actual.txt in the working directory; a deliberate layout
 * change refreshes the golden by copying that file over it.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "program/assembler.hpp"
#include "program/profiler.hpp"
#include "sig/sigstore.hpp"
#include "workloads/generator.hpp"

namespace rev::sig
{
namespace
{

/** FNV-1a 64 over @p len bytes. */
u64
fnv1a(const u8 *p, std::size_t len)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * A main module calling into a library directly and through a
 * function-pointer table, with the library calling on into a second
 * library: RETs of every module reach return sites of another. Computed
 * targets come from a profiling run, as the trusted toolchain does.
 */
prog::Program
makeLinkedProgram()
{
    prog::Program program;
    prog::Module libc;
    {
        prog::Assembler a(0x50000);
        a.label("twice");
        a.add(1, 1, 1);
        a.ret();
        libc = a.finalize("libc", "twice");
    }
    prog::Module libm;
    {
        prog::Assembler a(0x40000);
        a.label("square");
        a.mul(1, 1, 1);
        a.ret();
        a.label("cube");
        a.mul(2, 1, 1);
        a.mul(1, 2, 1);
        a.la(6, "twice_ptr");
        a.ld(6, 6, 0);
        a.callr(6);
        a.ret();
        a.beginData();
        a.align(8);
        a.label("twice_ptr");
        a.word64(libc.symbol("twice"));
        libm = a.finalize("libm", "square");
    }
    {
        prog::Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(1, 2);
        a.movi(7, 0);
        a.label("loop");
        a.andi(3, 7, 1);
        a.shli(3, 3, 3);
        a.la(4, "fntab");
        a.add(4, 4, 3);
        a.ld(4, 4, 0);
        a.callr(4);
        a.addi(7, 7, 1);
        a.movi(8, 4);
        a.blt(7, 8, "loop");
        a.halt();
        a.beginData();
        a.align(8);
        a.label("fntab");
        a.word64(libm.symbol("square"));
        a.word64(libm.symbol("cube"));
        program.addModule(a.finalize("main", "main"));
    }
    program.addModule(std::move(libm));
    program.addModule(std::move(libc));
    prog::applyProfile(program, prog::profileRun(program));
    return program;
}

/** One line per table: program, mode, module, base, size, digest. */
std::string
digestLines(const std::string &name, const prog::Program &program)
{
    crypto::KeyVault vault(1);
    std::ostringstream os;
    const SigStore *donor = nullptr;
    std::vector<SigStore> stores;
    stores.reserve(3);
    for (ValidationMode mode : {ValidationMode::Full,
                                ValidationMode::Aggressive,
                                ValidationMode::CfiOnly}) {
        stores.emplace_back(program, mode, vault, 1, prog::SplitLimits{}, 5,
                            donor);
        donor = &stores.front();
        const SigStore &store = stores.back();
        SparseMemory mem;
        store.loadInto(mem);
        for (const ModuleSig &ms : store.moduleSigs()) {
            std::vector<u8> bytes(ms.stats.sizeBytes);
            mem.readBytes(ms.tableBase, bytes.data(), bytes.size());
            os << name << ' ' << modeName(mode) << ' ' << ms.module->name
               << " 0x" << std::hex << ms.tableBase << std::dec << ' '
               << bytes.size() << ' ' << std::hex
               << fnv1a(bytes.data(), bytes.size()) << std::dec << '\n';
        }
    }
    return os.str();
}

TEST(TableDigest, EveryTableMatchesPinnedBytes)
{
    const auto profiles = workloads::spec2006Profiles();
    std::vector<std::string> parts(profiles.size() + 1);
    parallelFor(profiles.size(), 0, [&](std::size_t i) {
        parts[i] = digestLines(profiles[i].name,
                               workloads::generateWorkload(profiles[i]));
    });
    parts.back() = digestLines("linked", makeLinkedProgram());

    std::string actual;
    for (const std::string &p : parts)
        actual += p;

    std::ifstream in(REV_GOLDEN_TABLE_DIGESTS_PATH);
    ASSERT_TRUE(in) << "missing golden " << REV_GOLDEN_TABLE_DIGESTS_PATH;
    std::stringstream golden;
    golden << in.rdbuf();
    if (golden.str() != actual) {
        std::ofstream("table_digests.actual.txt") << actual;
        std::istringstream g(golden.str()), a(actual);
        std::string gl, al;
        while (true) {
            const bool more_g = static_cast<bool>(std::getline(g, gl));
            const bool more_a = static_cast<bool>(std::getline(a, al));
            if (!more_g && !more_a)
                break;
            EXPECT_EQ(more_g ? gl : "", more_a ? al : "");
        }
        FAIL() << "signature-table bytes changed; see "
                  "table_digests.actual.txt";
    }
}

} // namespace
} // namespace rev::sig
