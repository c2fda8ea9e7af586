/**
 * @file
 * Functional interpreter tests.
 */

#include <gtest/gtest.h>

#include <bit>

#include "program/interp.hpp"
#include "testutil.hpp"

namespace rev::prog
{
namespace
{

TEST(Interp, LoopCallProgramResult)
{
    auto p = test::makeLoopCallProgram();
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    EXPECT_TRUE(machine.halted());
    // sum(1..10) = 55, doubled by helper = 110.
    EXPECT_EQ(mem.read64(test::kResultAddr), 110u);
}

TEST(Interp, IndirectDispatchResult)
{
    auto p = test::makeIndirectDispatchProgram();
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    // 8 iterations alternating +5 (even counter) / +3 (odd counter):
    // counters 8..1 -> parities 0,1,0,1,... -> 4*5 + 4*3 = 32.
    EXPECT_EQ(machine.reg(1), 32u);
}

TEST(Interp, RegisterZeroIsHardwired)
{
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(0, 99);
    a.add(1, 0, 0);
    a.halt();
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    EXPECT_EQ(machine.reg(0), 0u);
    EXPECT_EQ(machine.reg(1), 0u);
}

TEST(Interp, CallPushesReturnAddressOnStack)
{
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    const Addr call_addr = a.call("f");
    a.label("after");
    a.halt();
    a.label("f");
    a.ld(7, isa::kRegSp, 0); // read own return address
    a.ret();
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    EXPECT_EQ(machine.reg(7), p.main().symbol("after"));
    (void)call_addr;
    // SP restored after return.
    EXPECT_EQ(machine.reg(isa::kRegSp), Program::initialSp());
}

TEST(Interp, ArithmeticSemantics)
{
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, -3);          // r1 = -3 (sign-extended)
    a.movi(2, 5);
    a.mul(3, 1, 2);         // r3 = -15
    a.slt(4, 1, 2);         // r4 = 1 (signed)
    a.sltu(5, 1, 2);        // r5 = 0 (unsigned: huge < 5 is false)
    a.divu(6, 2, 0);        // div by zero -> 0
    a.shli(7, 2, 2);        // 20
    a.xori(8, 2, 0xff);     // 0xfa
    a.halt();
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    EXPECT_EQ(static_cast<i64>(machine.reg(3)), -15);
    EXPECT_EQ(machine.reg(4), 1u);
    EXPECT_EQ(machine.reg(5), 0u);
    EXPECT_EQ(machine.reg(6), 0u);
    EXPECT_EQ(machine.reg(7), 20u);
    EXPECT_EQ(machine.reg(8), 0xfau);
}

TEST(Interp, LogicalImmediatesZeroExtend)
{
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, 0);
    a.ori(2, 1, static_cast<i32>(0x80000000)); // must NOT sign-extend
    a.halt();
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    EXPECT_EQ(machine.reg(2), 0x80000000u);
}

TEST(Interp, FloatingPointOps)
{
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.la(1, "vals");
    a.ld(2, 1, 0);  // 1.5
    a.ld(3, 1, 8);  // 2.5
    a.fadd(4, 2, 3);
    a.fmul(5, 2, 3);
    a.halt();
    a.beginData();
    a.align(8);
    a.label("vals");
    a.word64(std::bit_cast<u64>(1.5));
    a.word64(std::bit_cast<u64>(2.5));
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    EXPECT_EQ(std::bit_cast<double>(machine.reg(4)), 4.0);
    EXPECT_EQ(std::bit_cast<double>(machine.reg(5)), 3.75);
}

TEST(Interp, SubWordLoadsAndStores)
{
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, 0x12345678);
    a.shli(1, 1, 16);
    a.ori(1, 1, 0x9abc);          // r1 = 0x123456789abc
    a.movi(5, static_cast<i32>(prog::kHeapBase));
    a.st(1, 5, 0);                // full word
    a.lb(2, 5, 0);                // lowest byte
    a.lw(3, 5, 0);                // low 32 bits
    a.sb(1, 5, 16);               // byte store
    a.ld(4, 5, 16);               // read back: only one byte written
    a.sw(1, 5, 32);               // word store
    a.ld(6, 5, 32);
    a.halt();
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    EXPECT_EQ(machine.reg(2), 0xbcu);
    EXPECT_EQ(machine.reg(3), 0x56789abcu);
    EXPECT_EQ(machine.reg(4), 0xbcu);
    EXPECT_EQ(machine.reg(6), 0x56789abcu);
}

TEST(Interp, SubWordForwardingThroughStoreBuffer)
{
    // A byte store followed by a wider load must forward byte-accurately
    // through the deferred-store buffer.
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(5, static_cast<i32>(prog::kHeapBase));
    a.movi(1, 0x11111111);
    a.st(1, 5, 0);
    a.movi(2, 0xaa);
    a.sb(2, 5, 1); // overwrite byte 1
    a.ld(3, 5, 0);
    a.halt();
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    StoreBuffer sb;
    SeqNum seq = 0;
    while (!machine.halted())
        machine.step(&sb, ++seq);
    EXPECT_EQ(machine.reg(3), 0x1111aa11u);
    // Memory untouched until drain.
    EXPECT_EQ(mem.read64(prog::kHeapBase), 0u);
    sb.drain(mem, seq);
    EXPECT_EQ(mem.read64(prog::kHeapBase), 0x1111aa11u);
}

TEST(Interp, InvalidBytesHaltWithFlag)
{
    Program p;
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.halt();
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    mem.write8(prog::kDefaultCodeBase, 0xff); // corrupt the halt
    Machine machine(p, mem);
    const ExecRecord rec = machine.step();
    EXPECT_TRUE(rec.invalid);
    EXPECT_TRUE(machine.halted());
}

TEST(Interp, SyscallRecorded)
{
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.syscall(2);
    a.halt();
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    const ExecRecord rec = machine.step();
    EXPECT_TRUE(rec.isSyscall);
    EXPECT_EQ(rec.syscallNo, 2);
}

TEST(Interp, DecodeCachePicksUpExternalCodePatch)
{
    // Overwrite already-executed code in place (attack-injector style,
    // no manual invalidation): the refetched stream must decode the new
    // bytes, because the decode cache revalidates page versions.
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(3, 111);
    a.halt();
    Assembler b(prog::kDefaultCodeBase);
    b.label("main");
    b.movi(3, 222);
    b.halt();
    Program pa;
    pa.addModule(a.finalize("t", "main"));
    Program pb;
    pb.addModule(b.finalize("t", "main"));

    SparseMemory mem;
    pa.loadInto(mem);
    Machine machine(pa, mem);
    machine.step();
    EXPECT_EQ(machine.reg(3), 111u);

    pb.loadInto(mem);
    machine.setPc(pa.main().symbol("main"));
    machine.step();
    EXPECT_EQ(machine.reg(3), 222u);
}

TEST(Interp, SelfModifyingStoreRefetchesFreshBytes)
{
    // Locate the image byte where MOVI encodes the immediate 111 vs 222.
    Assembler p1(prog::kDefaultCodeBase);
    p1.label("main");
    p1.movi(3, 111);
    p1.halt();
    Assembler p2(prog::kDefaultCodeBase);
    p2.label("main");
    p2.movi(3, 222);
    p2.halt();
    Program a1;
    a1.addModule(p1.finalize("t", "main"));
    Program a2;
    a2.addModule(p2.finalize("t", "main"));
    const auto &i1 = a1.main().image;
    const auto &i2 = a2.main().image;
    ASSERT_EQ(i1.size(), i2.size());
    std::size_t k = 0;
    u8 patch = 0;
    unsigned diffs = 0;
    for (std::size_t i = 0; i < i1.size(); ++i) {
        if (i1[i] != i2[i]) {
            k = i;
            patch = i2[i];
            ++diffs;
        }
    }
    ASSERT_EQ(diffs, 1u);

    // The program patches its own instruction stream through a plain
    // store, then re-executes the patched instruction. Both decodes must
    // take effect: r5 accumulates 111 + 222.
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.call("doit");
    a.add(5, 5, 3);
    a.la(1, "doit");
    a.movi(2, patch);
    a.sb(2, 1, static_cast<i32>(k));
    a.call("doit");
    a.add(5, 5, 3);
    a.halt();
    a.label("doit");
    a.movi(3, 111);
    a.ret();
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    EXPECT_EQ(machine.reg(5), 333u);
}

/** Heap slot the upcoming-patch program loads its replacement word from. */
constexpr Addr kPatchSlot = prog::kHeapBase + 0x100;

/** Straight-line code that stores a word from kPatchSlot over the MOVI at
 *  "patch", two instructions ahead on the same page, then runs it. */
Program
makeSmcProgram(i32 imm)
{
    Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, static_cast<i32>(kPatchSlot));
    a.ld(2, 1, 0); // r2 = replacement instruction word
    a.la(3, "patch");
    a.st(2, 3, 0); // overwrite the code 2 instructions ahead
    a.label("patch");
    a.movi(4, imm); // the store above replaces this instruction
    a.nop();
    a.nop();
    a.nop();
    a.movi(5, static_cast<i32>(test::kResultAddr));
    a.st(4, 5, 0);
    a.halt();
    Program p;
    p.addModule(a.finalize("smc", "main"));
    return p;
}

TEST(Interp, StoreOverUpcomingInstructionExecutesFreshBytes)
{
    // The donor image differs only in the patched immediate; its bytes
    // at "patch" are the replacement word the program stores.
    const Program victim = makeSmcProgram(111);
    const Program donor = makeSmcProgram(222);
    const Addr patch = victim.main().symbol("patch");
    SparseMemory donorMem;
    donor.loadInto(donorMem);

    SparseMemory mem;
    victim.loadInto(mem);
    mem.write(kPatchSlot, donorMem.read64(patch), 8);
    Machine machine(victim, mem);
    runToHalt(machine);
    EXPECT_TRUE(machine.halted());
    EXPECT_EQ(mem.read64(test::kResultAddr), 222u);
}

TEST(Interp, StepAfterHaltIsIdempotent)
{
    auto p = test::makeLoopCallProgram();
    SparseMemory mem;
    p.loadInto(mem);
    Machine machine(p, mem);
    runToHalt(machine);
    const Addr pc = machine.pc();
    const ExecRecord rec = machine.step();
    EXPECT_TRUE(rec.halted);
    EXPECT_EQ(machine.pc(), pc);
}

} // namespace
} // namespace rev::prog
