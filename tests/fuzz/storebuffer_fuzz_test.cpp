/**
 * @file
 * StoreBuffer differential fuzzing against a trivially correct reference:
 * a journal of (seq, addr, value, size) replayed byte by byte. Stores of
 * 1, 2, 4 and 8 bytes overlap one another, and every step compares each
 * forwarding answer (readByte, covers, newestCoverSeq, read64).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "program/interp.hpp"

namespace rev::prog
{
namespace
{

/** Reference model: full journal; reads replay everything in order. */
class RefBuffer
{
  public:
    void push(SeqNum seq, Addr addr, u64 value, unsigned size)
    {
        journal_.push_back({seq, addr, value, size});
    }

    u8
    readByte(const SparseMemory &mem, Addr addr) const
    {
        u8 v = mem.read8(addr);
        for (const auto &e : journal_) {
            if (addr >= e.addr && addr < e.addr + e.size)
                v = static_cast<u8>(e.value >> (8 * (addr - e.addr)));
        }
        return v;
    }

    /** Newest pending store writing any byte of [addr, addr + size),
     *  0 when none does. */
    SeqNum
    newestCoverSeq(Addr addr, unsigned size) const
    {
        SeqNum newest = 0;
        for (const auto &e : journal_)
            for (Addr b = addr; b < addr + size; ++b)
                if (b >= e.addr && b < e.addr + e.size)
                    newest = e.seq;
        return newest;
    }

    u64
    read64(const SparseMemory &mem, Addr addr) const
    {
        u64 v = 0;
        for (unsigned i = 8; i-- > 0;)
            v = (v << 8) | readByte(mem, addr + i);
        return v;
    }

    void
    drain(SparseMemory &mem, SeqNum up_to)
    {
        std::size_t i = 0;
        while (i < journal_.size() && journal_[i].seq <= up_to) {
            mem.write(journal_[i].addr, journal_[i].value,
                      journal_[i].size);
            ++i;
        }
        journal_.erase(journal_.begin(),
                       journal_.begin() + static_cast<long>(i));
    }

    void
    squash(SeqNum from)
    {
        while (!journal_.empty() && journal_.back().seq >= from)
            journal_.pop_back();
    }

  private:
    struct Entry
    {
        SeqNum seq;
        Addr addr;
        u64 value;
        unsigned size;
    };
    std::vector<Entry> journal_;
};

class StoreBufferFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(StoreBufferFuzz, MatchesReferenceUnderRandomOps)
{
    Rng rng(GetParam());
    SparseMemory mem_dut, mem_ref;
    StoreBuffer dut;
    RefBuffer ref;

    // Seed some initial memory.
    for (int i = 0; i < 32; ++i) {
        const Addr a = 0x1000 + rng.below(256);
        const u64 v = rng.next();
        mem_dut.write64(a, v);
        mem_ref.write64(a, v);
    }

    SeqNum seq = 0;
    SeqNum oldest_pending = 1;
    for (int op = 0; op < 20'000; ++op) {
        const Addr addr = 0x1000 + rng.below(300);
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2:
          case 3: { // store of 1, 2, 4 or 8 bytes
            const u64 v = rng.next();
            const unsigned size = 1u << rng.below(4);
            ++seq;
            dut.push(seq, addr, v, size);
            ref.push(seq, addr, v, size);
            break;
          }
          case 4:
          case 5: { // drain a prefix
            if (seq >= oldest_pending) {
                const SeqNum up_to = oldest_pending + rng.below(
                    seq - oldest_pending + 1);
                dut.drain(mem_dut, up_to);
                ref.drain(mem_ref, up_to);
                oldest_pending = up_to + 1;
            }
            break;
          }
          case 6: { // squash a suffix
            if (seq >= oldest_pending) {
                const SeqNum from = oldest_pending + rng.below(
                    seq - oldest_pending + 1);
                dut.squash(from);
                ref.squash(from);
                seq = from - 1;
            }
            break;
          }
          default: { // read
            ASSERT_EQ(dut.readByte(mem_dut, addr),
                      ref.readByte(mem_ref, addr))
                << "op " << op << " addr " << std::hex << addr;
            break;
          }
        }
        // What a load of each width at addr would see, after every op.
        for (unsigned size : {1u, 2u, 4u, 8u}) {
            const SeqNum cover = ref.newestCoverSeq(addr, size);
            ASSERT_EQ(dut.covers(addr, size), cover != 0)
                << "op " << op << " size " << size << " addr " << std::hex
                << addr;
            ASSERT_EQ(dut.newestCoverSeq(addr, size), cover)
                << "op " << op << " size " << size << " addr " << std::hex
                << addr;
        }
        ASSERT_EQ(dut.read64(mem_dut, addr), ref.read64(mem_ref, addr))
            << "op " << op << " addr " << std::hex << addr;
    }

    // Final drain and full comparison.
    dut.drain(mem_dut, seq);
    ref.drain(mem_ref, seq);
    for (Addr a = 0x1000; a < 0x1000 + 310; ++a)
        ASSERT_EQ(mem_dut.read8(a), mem_ref.read8(a)) << std::hex << a;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreBufferFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

} // namespace
} // namespace rev::prog
