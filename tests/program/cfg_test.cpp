/**
 * @file
 * Static CFG extraction tests (Sec. IV/V analysis).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "isa/codec.hpp"
#include "program/cfg.hpp"
#include "testutil.hpp"

namespace rev::prog
{
namespace
{

bool
hasSucc(const Cfg &cfg, const BasicBlock &bb, Addr target)
{
    const std::span<const Addr> succs = cfg.succs(bb);
    return std::find(succs.begin(), succs.end(), target) != succs.end();
}

TEST(Cfg, LoopCallProgramStructure)
{
    auto p = test::makeLoopCallProgram();
    const Module &m = p.main();
    Cfg cfg = buildCfg(m);

    // Entry block: main..bne (branch terminator).
    const BasicBlock *entry = cfg.blockAtStart(m.symbol("main"));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->kind, TermKind::Branch);
    EXPECT_TRUE(hasSucc(cfg, *entry, m.symbol("loop")));

    // Loop block: loop..bne, successors = loop and fall-through.
    const BasicBlock *loop = cfg.blockAtStart(m.symbol("loop"));
    ASSERT_NE(loop, nullptr);
    EXPECT_EQ(loop->kind, TermKind::Branch);
    EXPECT_EQ(cfg.succs(*loop).size(), 2u);
    EXPECT_TRUE(hasSucc(cfg, *loop, m.symbol("loop")));

    // The block after the loop ends with CALL helper.
    const BasicBlock *callbb = cfg.blockAtStart(loop->end);
    ASSERT_NE(callbb, nullptr);
    EXPECT_EQ(callbb->kind, TermKind::Call);
    EXPECT_TRUE(hasSucc(cfg, *callbb, m.symbol("helper")));

    // Helper ends with RET whose successor is the call's return site.
    const BasicBlock *helper = cfg.blockAtStart(m.symbol("helper"));
    ASSERT_NE(helper, nullptr);
    EXPECT_EQ(helper->kind, TermKind::Return);
    ASSERT_EQ(cfg.succs(*helper).size(), 1u);
    EXPECT_EQ(cfg.succs(*helper)[0], callbb->end);

    // The return site records the RET instruction as its predecessor
    // (delayed return validation, Sec. V.A).
    const BasicBlock *retsite = cfg.blockAtStart(callbb->end);
    ASSERT_NE(retsite, nullptr);
    ASSERT_EQ(cfg.retPreds(*retsite).size(), 1u);
    EXPECT_EQ(cfg.retPreds(*retsite)[0], helper->term);
}

TEST(Cfg, IndirectDispatchTargetsFromAnnotations)
{
    auto p = test::makeIndirectDispatchProgram();
    const Module &m = p.main();
    Cfg cfg = buildCfg(m);

    // Find the CALLR block.
    const BasicBlock *callr = nullptr;
    for (const auto &bb : cfg.blocks())
        if (bb.kind == TermKind::CallIndirect)
            callr = &bb;
    ASSERT_NE(callr, nullptr);
    EXPECT_TRUE(hasSucc(cfg, *callr, m.symbol("fn_a")));
    EXPECT_TRUE(hasSucc(cfg, *callr, m.symbol("fn_b")));

    // Both functions' RETs return to the single return site; that site
    // lists both RET addresses as predecessors.
    const BasicBlock *retsite = cfg.blockAtStart(callr->end);
    ASSERT_NE(retsite, nullptr);
    EXPECT_EQ(cfg.retPreds(*retsite).size(), 2u);
}

TEST(Cfg, BranchIntoBlockMiddleCreatesSuffixBlock)
{
    Assembler a(0x10000);
    a.label("main");
    a.movi(1, 5);
    a.label("mid"); // branch target inside a straight-line run
    a.addi(1, 1, -1);
    a.bne(1, 0, "mid");
    a.halt();

    auto m = a.finalize("t", "main");
    Cfg cfg = buildCfg(m);

    const BasicBlock *full = cfg.blockAtStart(m.symbol("main"));
    const BasicBlock *suffix = cfg.blockAtStart(m.symbol("mid"));
    ASSERT_NE(full, nullptr);
    ASSERT_NE(suffix, nullptr);
    // Same terminator, different entry points and lengths.
    EXPECT_EQ(full->term, suffix->term);
    EXPECT_GT(full->numInstrs, suffix->numInstrs);
    // Both are indexed under the shared terminator.
    EXPECT_EQ(cfg.blocksAtTerm(full->term).size(), 2u);
}

TEST(Cfg, ArtificialSplitOnInstrLimit)
{
    Assembler a(0x10000);
    a.label("main");
    for (int i = 0; i < 20; ++i)
        a.addi(1, 1, 1);
    a.halt();
    auto m = a.finalize("t", "main");

    SplitLimits limits;
    limits.maxInstrs = 8;
    Cfg cfg = buildCfg(m, limits);

    const BasicBlock *first = cfg.blockAtStart(m.symbol("main"));
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->kind, TermKind::Split);
    EXPECT_EQ(first->numInstrs, 8u);
    ASSERT_EQ(cfg.succs(*first).size(), 1u);

    // Chain: 8 + 8 + 4 instrs + halt.
    const BasicBlock *second = cfg.blockAtStart(cfg.succs(*first)[0]);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->kind, TermKind::Split);
    const BasicBlock *third = cfg.blockAtStart(cfg.succs(*second)[0]);
    ASSERT_NE(third, nullptr);
    EXPECT_EQ(third->kind, TermKind::Halt);
    EXPECT_EQ(third->numInstrs, 5u);
}

TEST(Cfg, ArtificialSplitOnStoreLimit)
{
    Assembler a(0x10000);
    a.label("main");
    for (int i = 0; i < 6; ++i)
        a.st(1, 30, -8 * (i + 1));
    a.halt();
    auto m = a.finalize("t", "main");

    SplitLimits limits;
    limits.maxInstrs = 100;
    limits.maxStores = 2;
    Cfg cfg = buildCfg(m, limits);

    const BasicBlock *first = cfg.blockAtStart(m.symbol("main"));
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->kind, TermKind::Split);
    EXPECT_EQ(first->numStores, 2u);
}

TEST(Cfg, StatsAreConsistent)
{
    auto p = test::makeLoopCallProgram();
    Cfg cfg = buildCfg(p.main());
    const CfgStats s = cfg.stats();
    EXPECT_GT(s.numBlocks, 3u);
    EXPECT_GT(s.avgInstrsPerBlock, 1.0);
    EXPECT_GT(s.avgSuccsPerBlock, 0.5);
    EXPECT_EQ(s.numComputedSites, 0u);
    EXPECT_LE(s.numTerminators, s.numBlocks);
}

TEST(Cfg, ComputedSiteCounted)
{
    auto p = test::makeIndirectDispatchProgram();
    Cfg cfg = buildCfg(p.main());
    EXPECT_EQ(cfg.stats().numComputedSites, 1u);
}

TEST(Cfg, HaltHasNoSuccessors)
{
    Assembler a(0x10000);
    a.label("main");
    a.halt();
    auto m = a.finalize("t", "main");
    Cfg cfg = buildCfg(m);
    const BasicBlock *bb = cfg.blockAtStart(m.base);
    ASSERT_NE(bb, nullptr);
    EXPECT_TRUE(cfg.succs(*bb).empty());
}

TEST(Cfg, LinkCfgsIsIdempotent)
{
    auto p = test::makeLoopCallProgram();
    Cfg cfg = buildCfg(p.main());
    // Snapshot the edge lists by value: the views point into the CFG.
    using Edges = std::vector<Addr>;
    auto copy = [](std::span<const Addr> v) {
        return Edges(v.begin(), v.end());
    };
    std::vector<std::pair<Edges, Edges>> snapshot;
    for (const BasicBlock &bb : cfg.blocks())
        snapshot.emplace_back(copy(cfg.succs(bb)), copy(cfg.retPreds(bb)));
    linkCfgs({&cfg});
    linkCfgs({&cfg});
    ASSERT_EQ(cfg.blocks().size(), snapshot.size());
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        const BasicBlock &bb = cfg.blocks()[i];
        EXPECT_EQ(copy(cfg.succs(bb)), snapshot[i].first) << i;
        EXPECT_EQ(copy(cfg.retPreds(bb)), snapshot[i].second) << i;
    }
}

TEST(Cfg, UnknownStartReturnsNull)
{
    auto p = test::makeLoopCallProgram();
    Cfg cfg = buildCfg(p.main());
    EXPECT_EQ(cfg.blockAtStart(0xdead), nullptr);
    EXPECT_TRUE(cfg.blocksAtTerm(0xdead).empty());
}

/** A module whose code region is exactly @p code (no data). */
Module
rawModule(std::vector<u8> code)
{
    Module m;
    m.name = "raw";
    m.base = 0x10000;
    m.entry = m.base;
    m.codeSize = code.size();
    m.image = std::move(code);
    return m;
}

TEST(Cfg, UndecodableCodeFatal)
{
    // 0x00 is deliberately not an opcode.
    Module m = rawModule({static_cast<u8>(isa::Opcode::Nop), 0x00,
                          static_cast<u8>(isa::Opcode::Halt)});
    EXPECT_THROW(deriveCfg(m), FatalError);
}

TEST(Cfg, TruncatedInstructionAtCodeEndFatal)
{
    std::vector<u8> code;
    isa::encode({.op = isa::Opcode::Movi, .rd = 1, .imm = 7}, code);
    code.pop_back();
    EXPECT_THROW(deriveCfg(rawModule(std::move(code))), FatalError);
}

TEST(Cfg, ControlFallingOffCodeEndFatal)
{
    Assembler a(0x10000);
    a.label("main");
    a.addi(1, 1, 1);
    a.addi(1, 1, 2); // no terminator: the block runs past the code end
    EXPECT_THROW(deriveCfg(a.finalize("t", "main")), FatalError);
}

TEST(Cfg, SplitFallingOffCodeEndFatal)
{
    // The split lands exactly on the code end, so its fall-through block
    // starts outside the code region.
    Assembler a(0x10000);
    a.label("main");
    for (int i = 0; i < 4; ++i)
        a.addi(1, 1, 1);
    SplitLimits limits;
    limits.maxInstrs = 4;
    EXPECT_THROW(deriveCfg(a.finalize("t", "main"), limits), FatalError);
}

TEST(Cfg, DirectBranchIntoInstructionMiddleFatal)
{
    // jmp (5 bytes) to offset 6: the second byte of the following movi.
    std::vector<u8> code;
    isa::encode({.op = isa::Opcode::Jmp, .imm = 6}, code);
    isa::encode({.op = isa::Opcode::Movi, .rd = 1, .imm = 1}, code);
    isa::encode({.op = isa::Opcode::Halt}, code);
    EXPECT_THROW(deriveCfg(rawModule(std::move(code))), FatalError);
}

TEST(Cfg, IndirectAnnotationOffInstructionFatal)
{
    Assembler a(0x10000);
    a.label("main");
    a.movi(1, 0);
    a.halt();
    Module m = a.finalize("t", "main");
    m.indirectTargets[m.base + 1] = {m.base};
    EXPECT_THROW(deriveCfg(m), FatalError);
}

TEST(Cfg, AnnotatedTargetOffInstructionFatal)
{
    Assembler a(0x10000);
    a.label("main");
    a.movi(1, 0);
    const Addr site = a.jmpr(1);
    a.halt();
    Module m = a.finalize("t", "main");
    m.indirectTargets[site] = {m.base + 2};
    EXPECT_THROW(deriveCfg(m), FatalError);
}

TEST(Cfg, EntryOffInstructionFatal)
{
    Assembler a(0x10000);
    a.label("main");
    a.movi(1, 0);
    a.halt();
    Module m = a.finalize("t", "main");
    m.entry = m.base + 3;
    EXPECT_THROW(deriveCfg(m), FatalError);
}

} // namespace
} // namespace rev::prog
