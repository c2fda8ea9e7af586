/**
 * @file
 * Decoded instructions are shared per copy-on-write page: every memory
 * sharing a code page shares its decodes, a write that clones the page
 * starts the clone without them, an in-place write by the page's only
 * owner drops them, and page-crossing instructions are never cached.
 * The threaded case runs under the TSan job.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "program/assembler.hpp"
#include "program/interp.hpp"

namespace rev::prog
{
namespace
{

constexpr u64 kPage = SparseMemory::kPageSize;

/** main: movi r1, 7; halt. Returns the program; @p movi_pc receives the
 *  MOVI's address (its imm32 starts two bytes in). */
Program
moviProgram(Addr *movi_pc)
{
    Assembler a(kDefaultCodeBase);
    a.label("main");
    *movi_pc = a.movi(1, 7);
    a.halt();
    Program p;
    p.addModule(a.finalize("t", "main"));
    return p;
}

/** Decodes of @p mem's page @p page_no, or nullptr when it has none. */
const DecodedPage *
decodesOf(const SparseMemory &mem, u64 page_no)
{
    return static_cast<const DecodedPage *>(
        mem.pageView(page_no).annex->load(std::memory_order_acquire));
}

TEST(DecodeSharing, ForksShareDecodesAndATamperStaysPrivate)
{
    Addr pc = 0;
    const Program p = moviProgram(&pc);
    SparseMemory src;
    p.loadInto(src);
    SparseMemory fork_a = src.fork();
    SparseMemory fork_b = src.fork();
    Machine m_src(p, src), m_a(p, fork_a), m_b(p, fork_b);

    // One decode, seen by all three machines through the shared page.
    const Predecoded *d = m_a.predecode(pc);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(m_b.predecode(pc), d);
    EXPECT_EQ(m_src.predecode(pc), d);
    EXPECT_EQ(decodesOf(src, pc / kPage), decodesOf(fork_b, pc / kPage));

    // Fork A tampers the immediate: its page is cloned without decodes.
    fork_a.write8(pc + 2, 42);
    EXPECT_EQ(decodesOf(fork_a, pc / kPage), nullptr);
    EXPECT_NE(decodesOf(src, pc / kPage), nullptr);

    runToHalt(m_a);
    runToHalt(m_b);
    runToHalt(m_src);
    EXPECT_EQ(m_a.reg(1), 42u);
    EXPECT_EQ(m_b.reg(1), 7u);
    EXPECT_EQ(m_src.reg(1), 7u);
    EXPECT_NE(m_a.predecode(pc), m_b.predecode(pc));
    EXPECT_EQ(m_b.predecode(pc), m_src.predecode(pc));
}

TEST(DecodeSharing, InPlaceWriteByTheOnlyOwnerDropsDecodes)
{
    Addr pc = 0;
    const Program p = moviProgram(&pc);
    SparseMemory mem;
    p.loadInto(mem);
    Machine m(p, mem);
    const Predecoded *d = m.predecode(pc);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->ins.imm, 7);
    ASSERT_NE(decodesOf(mem, pc / kPage), nullptr);

    mem.write8(pc + 2, 9); // no fork shares the page: written in place
    EXPECT_EQ(decodesOf(mem, pc / kPage), nullptr);
    d = m.predecode(pc);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->ins.imm, 9);
    runToHalt(m);
    EXPECT_EQ(m.reg(1), 9u);
}

TEST(DecodeSharing, PageCrossingInstructionIsNotCached)
{
    // A 6-byte MOVI starting three bytes before a page boundary.
    Assembler a(kDefaultCodeBase);
    a.label("main");
    while (a.here() != kDefaultCodeBase + kPage - 3)
        a.nop();
    const Addr pc = a.movi(1, 5);
    a.halt();
    Program p;
    p.addModule(a.finalize("t", "main"));
    SparseMemory mem;
    p.loadInto(mem);
    Machine m(p, mem);

    const Predecoded *d = m.predecode(pc);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->ins.imm, 5);
    const DecodedPage *dp = decodesOf(mem, pc / kPage);
    ASSERT_NE(dp, nullptr);
    EXPECT_EQ(dp->state[pc % kPage].load(), DecodedPage::kUnknown);
    const std::vector<u64> touched = m.decodePages();
    EXPECT_NE(std::find(touched.begin(), touched.end(), pc / kPage + 1),
              touched.end());

    // A write to the spill bytes alone (the next page) changes the
    // instruction, and the machine sees it.
    mem.write8(pc + 5, 1); // imm byte 3: 5 + (1 << 24)
    runToHalt(m);
    EXPECT_EQ(m.reg(1), 5u + (u64{1} << 24));
}

TEST(DecodeSharing, ConcurrentForksOfOneImage)
{
    Addr pc = 0;
    const Program p = moviProgram(&pc);
    SparseMemory image;
    p.loadInto(image);

    // Forks on several threads decode the shared page at once; every
    // other fork tampers its own copy first.
    constexpr unsigned kThreads = 4;
    constexpr unsigned kForksPerThread = 64;
    std::vector<SparseMemory> forks;
    for (unsigned i = 0; i < kThreads * kForksPerThread; ++i)
        forks.push_back(image.fork());
    std::vector<u64> result(forks.size());
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned k = 0; k < kForksPerThread; ++k) {
                const unsigned i = t * kForksPerThread + k;
                if (i % 2)
                    forks[i].write8(pc + 2, static_cast<u8>(i));
                Machine m(p, forks[i]);
                runToHalt(m);
                result[i] = m.reg(1);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned i = 0; i < forks.size(); ++i)
        EXPECT_EQ(result[i], i % 2 ? static_cast<u8>(i) : 7u) << i;
}

} // namespace
} // namespace rev::prog
