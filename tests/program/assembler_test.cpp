/**
 * @file
 * Assembler / linker tests.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "isa/codec.hpp"
#include "program/assembler.hpp"

namespace rev::prog
{
namespace
{

TEST(Assembler, ForwardAndBackwardBranchFixups)
{
    Assembler a(0x10000);
    a.label("start");
    const Addr b1 = a.beq(1, 2, "end");   // forward
    a.nop();
    const Addr b2 = a.jmp("start");       // backward
    a.label("end");
    a.halt();

    Module m = a.finalize("t", "start");

    auto at = [&](Addr addr) {
        const std::size_t off = addr - m.base;
        return *isa::decode(m.image.data() + off, m.image.size() - off);
    };
    EXPECT_EQ(at(b1).directTarget(b1), m.symbol("end"));
    EXPECT_EQ(at(b2).directTarget(b2), m.symbol("start"));
}

TEST(Assembler, LaLoadsAbsoluteAddress)
{
    Assembler a(0x10000);
    a.label("main");
    a.la(1, "data");
    a.halt();
    a.beginData();
    a.align(8);
    a.label("data");
    a.word64(0x1234);

    Module m = a.finalize("t", "main");
    // Execute the lui+ori pair by hand.
    const std::size_t off = 0;
    auto lui = *isa::decode(m.image.data() + off, m.image.size());
    auto ori = *isa::decode(m.image.data() + off + 6, m.image.size() - 6);
    const u64 value = (static_cast<u64>(static_cast<u32>(lui.imm)) << 32) |
                      static_cast<u32>(ori.imm);
    EXPECT_EQ(value, m.symbol("data"));
}

TEST(Assembler, Word64LabelEmitsAbsolute)
{
    Assembler a(0x20000);
    a.label("f");
    a.halt();
    a.beginData();
    a.align(8);
    a.label("tbl");
    a.word64Label("f");

    Module m = a.finalize("t", "f");
    const std::size_t off = m.symbol("tbl") - m.base;
    u64 v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | m.image[off + i];
    EXPECT_EQ(v, m.symbol("f"));
}

TEST(Assembler, CodeSizeExcludesData)
{
    Assembler a(0x10000);
    a.label("main");
    a.halt();
    a.beginData();
    a.zeros(100);
    Module m = a.finalize("t", "main");
    EXPECT_EQ(m.codeSize, 1u);
    EXPECT_EQ(m.image.size(), 101u);
}

TEST(Assembler, DuplicateLabelFatal)
{
    Assembler a(0x10000);
    a.label("x");
    EXPECT_THROW(a.label("x"), FatalError);
}

TEST(Assembler, UndefinedLabelFatal)
{
    Assembler a(0x10000);
    a.jmp("nowhere");
    EXPECT_THROW(a.finalize("t", ""), FatalError);
}

TEST(Assembler, InstructionAfterDataFatal)
{
    Assembler a(0x10000);
    a.halt();
    a.beginData();
    a.word64(0);
    EXPECT_THROW(a.nop(), FatalError);
}

TEST(Assembler, IndirectAnnotationsResolved)
{
    Assembler a(0x10000);
    a.label("main");
    const Addr site = a.jmpr(3);
    a.annotateIndirect(site, {"a", "b"});
    a.label("a");
    a.nop();
    a.label("b");
    a.halt();

    Module m = a.finalize("t", "main");
    ASSERT_EQ(m.indirectTargets.count(site), 1u);
    const auto &targets = m.indirectTargets.at(site);
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_EQ(targets[0], m.symbol("a"));
    EXPECT_EQ(targets[1], m.symbol("b"));
}

TEST(Assembler, AlignPadsWithNopsInCode)
{
    Assembler a(0x10000);
    a.label("main");
    a.nop();
    a.align(8);
    EXPECT_EQ(a.here() % 8, 0u);
    a.halt();
    Module m = a.finalize("t", "main");
    // Bytes 1..7 must be NOPs (decodable).
    for (std::size_t i = 1; i < 8; ++i)
        EXPECT_EQ(m.image[i], static_cast<u8>(isa::Opcode::Nop));
}

TEST(Assembler, AlignZeroFatal)
{
    Assembler a(0x10000);
    a.nop();
    EXPECT_THROW(a.align(0), FatalError);
}

/** Decode the instruction at @p addr of @p m. */
isa::Instr
instrAt(const Module &m, Addr addr)
{
    const std::size_t off = addr - m.base;
    return *isa::decode(m.image.data() + off, m.image.size() - off);
}

/** The little-endian 64-bit word at @p addr of @p m. */
u64
wordAt(const Module &m, Addr addr)
{
    u64 v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | m.image[addr - m.base + i];
    return v;
}

TEST(Assembler, AnonymousLabelsResolveForEveryFixupKind)
{
    Assembler a(0x10000);
    const Label fwd = a.newLabel(), back = a.newLabel(), fn = a.newLabel(),
                tbl = a.newLabel();
    a.label("main");
    a.bind(back);
    const Addr br = a.beq(1, 2, fwd);
    const Addr jb = a.jmp(back);
    const Addr cl = a.call(fn);
    const Addr la = a.la(3, tbl);
    const Addr site = a.jmpr(3);
    const std::vector<Label> targets{fwd, fn};
    a.annotateIndirect(site, targets);
    a.bind(fwd);
    a.halt();
    a.bind(fn);
    a.ret();
    a.beginData();
    a.align(8);
    const Addr tbl_at = a.here();
    a.bind(tbl);
    a.word64Label(fn);
    a.word64Label(fwd);

    Module m = a.finalize("t", "main");
    const Addr fwd_at = cl + 5 + 6 + 7 + 2; // call, lui, ori, jmpr
    const Addr fn_at = fwd_at + 1;
    EXPECT_EQ(instrAt(m, br).directTarget(br), fwd_at);
    EXPECT_EQ(instrAt(m, jb).directTarget(jb), m.base);
    EXPECT_EQ(instrAt(m, cl).directTarget(cl), fn_at);
    const u64 hi = static_cast<u32>(instrAt(m, la).imm);
    const u64 lo = static_cast<u32>(instrAt(m, la + 6).imm);
    EXPECT_EQ((hi << 32) | lo, tbl_at);
    EXPECT_EQ(wordAt(m, tbl_at), fn_at);
    EXPECT_EQ(wordAt(m, tbl_at + 8), fwd_at);
    ASSERT_EQ(m.indirectTargets.count(site), 1u);
    EXPECT_EQ(m.indirectTargets.at(site), (std::vector<Addr>{fwd_at, fn_at}));
}

TEST(Assembler, NamedAndStringReferencesShareOneLabel)
{
    Assembler a(0x10000);
    const Label f = a.named("f");
    EXPECT_EQ(a.named("f").id, f.id);
    const Addr j = a.jmp("f");
    a.bind(f);
    a.halt();
    EXPECT_THROW(a.label("f"), FatalError); // already bound via its Label
    Module m = a.finalize("t", "");
    EXPECT_EQ(instrAt(m, j).directTarget(j), m.symbol("f"));
}

TEST(Assembler, AnonymousLabelBoundTwiceFatal)
{
    Assembler a(0x10000);
    const Label l = a.newLabel();
    a.bind(l);
    a.nop();
    EXPECT_THROW(a.bind(l), FatalError);
}

TEST(Assembler, UnboundAnonymousLabelFatal)
{
    for (int kind = 0; kind < 4; ++kind) {
        Assembler a(0x10000);
        const Label l = a.newLabel();
        a.label("main");
        switch (kind) {
          case 0:
            a.bne(1, 0, l);
            break;
          case 1:
            a.la(1, l);
            break;
          case 2:
            a.annotateIndirect(a.jmpr(1), std::vector<Label>{l});
            break;
          default:
            a.halt();
            a.word64Label(l);
            break;
        }
        EXPECT_THROW(a.finalize("t", "main"), FatalError) << kind;
    }
}

TEST(Assembler, ForeignOrDefaultLabelFatal)
{
    Assembler other(0x20000);
    other.newLabel();
    const Label foreign = other.newLabel();
    Assembler a(0x10000);
    EXPECT_THROW(a.bind(foreign), FatalError);
    EXPECT_THROW(a.bind(Label{}), FatalError);
    a.jmp(foreign);
    EXPECT_THROW(a.finalize("t", ""), FatalError);

    Assembler b(0x10000);
    b.newLabel();
    b.call(Label{});
    EXPECT_THROW(b.finalize("t", ""), FatalError);
}

TEST(Assembler, OnlyNamedLabelsEnterSymbols)
{
    Assembler a(0x10000);
    a.label("main");
    const Label skip = a.newLabel();
    a.beq(1, 0, skip);
    a.call("fn");
    a.bind(skip);
    a.halt();
    a.label("fn");
    a.ret();

    Module m = a.finalize("t", "main");
    EXPECT_EQ(m.symbols,
              (std::map<std::string, Addr>{{"fn", m.base + 13},
                                           {"main", m.base}}));
}

TEST(Assembler, SecondFinalizeFatal)
{
    Assembler a(0x10000);
    a.label("main");
    a.halt();
    Module m = a.finalize("t", "main");
    EXPECT_EQ(m.image.size(), 1u);
    EXPECT_THROW(a.finalize("t", "main"), FatalError);
}

TEST(Module, SymbolLookupFatalWhenMissing)
{
    Assembler a(0x10000);
    a.label("main");
    a.halt();
    Module m = a.finalize("t", "main");
    EXPECT_EQ(m.symbol("main"), m.base);
    EXPECT_THROW(m.symbol("missing"), FatalError);
}

} // namespace
} // namespace rev::prog
