/**
 * @file
 * Unit tests for the sparse memory image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hpp"
#include "common/sparse_memory.hpp"

namespace rev
{
namespace
{

TEST(SparseMemory, UnwrittenReadsZero)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read8(0x1234), 0);
    EXPECT_EQ(mem.read64(0xdeadbeef), 0u);
    EXPECT_EQ(mem.pageCount(), 0u);
}

TEST(SparseMemory, ByteRoundTrip)
{
    SparseMemory mem;
    mem.write8(0x1000, 0xab);
    EXPECT_EQ(mem.read8(0x1000), 0xab);
    EXPECT_EQ(mem.read8(0x1001), 0);
}

TEST(SparseMemory, Word64RoundTripLittleEndian)
{
    SparseMemory mem;
    mem.write64(0x2000, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read64(0x2000), 0x1122334455667788ULL);
    EXPECT_EQ(mem.read8(0x2000), 0x88); // little-endian
    EXPECT_EQ(mem.read8(0x2007), 0x11);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory mem;
    const Addr boundary = SparseMemory::kPageSize - 4;
    mem.write64(boundary, 0xcafebabe12345678ULL);
    EXPECT_EQ(mem.read64(boundary), 0xcafebabe12345678ULL);
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(SparseMemory, BulkBytes)
{
    SparseMemory mem;
    std::vector<u8> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 7);
    mem.writeBytes(0x8000, data);

    std::vector<u8> back(data.size());
    mem.readBytes(0x8000, back.data(), back.size());
    EXPECT_EQ(back, data);
}

// The span fast paths must agree with a byte-at-a-time reference on every
// alignment, including spans that cross page boundaries and spans over
// pages that were never written (zero-fill).
TEST(SparseMemory, SpanFastPathsMatchByteReference)
{
    SparseMemory fast;
    SparseMemory ref;

    // Straddle a page boundary with writes of every size 1..8.
    const Addr boundary = 3 * SparseMemory::kPageSize;
    for (unsigned size = 1; size <= 8; ++size) {
        const Addr addr = boundary - size / 2;
        const u64 value = 0x0123456789abcdefULL >> (8 * (8 - size));
        fast.write(addr, value, size);
        for (unsigned i = 0; i < size; ++i)
            ref.write8(addr + i, static_cast<u8>(value >> (8 * i)));
        EXPECT_EQ(fast.read(addr, size), value) << "size " << size;
        for (unsigned i = 0; i < size; ++i)
            EXPECT_EQ(fast.read8(addr + i), ref.read8(addr + i))
                << "size " << size << " byte " << i;
    }

    // A bulk span covering written, partially written, and absent pages.
    std::vector<u8> data(3 * SparseMemory::kPageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 13 + 1);
    const Addr base = 7 * SparseMemory::kPageSize - 100;
    fast.writeBytes(base, data);
    for (std::size_t i = 0; i < data.size(); ++i)
        ref.write8(base + i, data[i]);

    // Read a window that starts before the written span (zero-fill from
    // the unmapped prefix) and ends past it (zero-fill suffix).
    const Addr lo = base - 64;
    const std::size_t n = data.size() + 256;
    std::vector<u8> got(n), want(n);
    fast.readBytes(lo, got.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        want[i] = ref.read8(lo + i);
    EXPECT_EQ(got, want);
}

TEST(SparseMemory, ReadsOfUnmappedPagesStayUnmapped)
{
    SparseMemory mem;
    u8 buf[64];
    mem.readBytes(0x100000, buf, sizeof(buf));
    for (u8 b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.read(0x200000, 8), 0u);
    EXPECT_EQ(mem.pageCount(), 0u); // reads must not materialize pages
}

TEST(SparseMemory, PageVersionsTrackWrites)
{
    SparseMemory mem;
    const u64 page = 5;
    const Addr addr = page * SparseMemory::kPageSize + 8;
    EXPECT_EQ(mem.pageVersion(page), 0u); // absent page

    mem.write8(addr, 1);
    const u64 v1 = mem.pageVersion(page);
    EXPECT_GT(v1, 0u);

    mem.write64(addr, 2); // same page: version advances
    const u64 v2 = mem.pageVersion(page);
    EXPECT_GT(v2, v1);

    mem.write8(addr + SparseMemory::kPageSize, 3); // other page untouched
    EXPECT_EQ(mem.pageVersion(page), v2);

    // A span write crossing both pages bumps each exactly once.
    u8 buf[SparseMemory::kPageSize] = {0xff};
    const Addr spanStart = (page + 1) * SparseMemory::kPageSize - 16;
    mem.writeBytes(spanStart, buf, sizeof(buf));
    EXPECT_EQ(mem.pageVersion(page), v2 + 1);

    // Reads never move versions.
    (void)mem.read64(addr);
    u8 tmp[32];
    mem.readBytes(addr, tmp, sizeof(tmp));
    EXPECT_EQ(mem.pageVersion(page), v2 + 1);
}

TEST(SparseMemory, SpanVersionSumCoversSpanPages)
{
    SparseMemory mem;
    const Addr a = 2 * SparseMemory::kPageSize;
    mem.write8(a, 1);
    mem.write8(a + SparseMemory::kPageSize, 2);
    const u64 sum = mem.spanVersionSum(a, a + SparseMemory::kPageSize + 1);
    EXPECT_EQ(sum, mem.pageVersion(2) + mem.pageVersion(3));
    EXPECT_EQ(mem.spanVersionSum(a, a), 0u); // empty span
    mem.write8(a + SparseMemory::kPageSize, 3);
    EXPECT_GT(mem.spanVersionSum(a, a + SparseMemory::kPageSize + 1), sum);
}

TEST(SparseMemory, CloneKeepsVersionsAndMovesBumpEpoch)
{
    SparseMemory mem;
    mem.write64(0x3000, 42);
    mem.write64(0x3000, 43);
    const u64 ver = mem.pageVersion(0x3000 / SparseMemory::kPageSize);
    const u64 epoch = mem.epoch();

    SparseMemory copy = mem.fork();
    EXPECT_EQ(copy.read64(0x3000), 43u);
    EXPECT_EQ(copy.pageVersion(0x3000 / SparseMemory::kPageSize), ver);

    mem = copy.fork(); // move-assign replaces the page set
    EXPECT_GT(mem.epoch(), epoch);
    EXPECT_EQ(mem.read64(0x3000), 43u);
}

TEST(SparseMemory, ForkIsAPageShadowTransaction)
{
    // Sec. IV.A page shadowing as the simulator runs it: the live image
    // is a fork of the committed one; moving it over the committed image
    // commits the epoch, and re-forking the committed image discards it.
    SparseMemory base;
    base.write64(0x1000, 1);
    base.write64(0x1008, 2);
    SparseMemory txn = base.fork();

    // Reads see the base until written.
    EXPECT_EQ(txn.read64(0x1000), 1u);

    // Writes stay private; the untouched neighbour on the same page keeps
    // its value in the private copy.
    txn.write64(0x1000, 7);
    txn.write64(0x5000, 3);
    EXPECT_EQ(txn.read64(0x1000), 7u);
    EXPECT_EQ(txn.read64(0x1008), 2u);
    EXPECT_EQ(base.read64(0x1000), 1u);
    EXPECT_EQ(base.read64(0x5000), 0u);

    // Commit maps every written page in.
    base = std::move(txn);
    EXPECT_EQ(base.read64(0x1000), 7u);
    EXPECT_EQ(base.read64(0x1008), 2u);
    EXPECT_EQ(base.read64(0x5000), 3u);

    // Discard: the next epoch's write is dropped by re-forking, and the
    // committed first epoch survives it.
    txn = base.fork();
    txn.write64(0x1000, 9);
    txn = base.fork();
    EXPECT_EQ(txn.read64(0x1000), 7u);
    EXPECT_EQ(base.read64(0x1000), 7u);

    // Random epochs against a flat byte model of both images.
    Rng rng(2024);
    constexpr Addr kLo = 0x1000;
    constexpr std::size_t kSpan = 3 * SparseMemory::kPageSize;
    std::vector<u8> committed(kSpan + 8), live;
    for (std::size_t i = 0; i < committed.size(); ++i)
        committed[i] = base.read8(kLo + i);
    live = committed;
    for (int op = 0; op < 20'000; ++op) {
        const Addr a = kLo + rng.below(kSpan);
        switch (rng.below(8)) {
        case 0: {
            const u64 v = rng.next();
            txn.write64(a, v);
            for (unsigned b = 0; b < 8; ++b)
                live[a - kLo + b] = static_cast<u8>(v >> (8 * b));
            break;
        }
        case 1:
            base = std::move(txn);
            txn = base.fork();
            committed = live;
            break;
        case 2:
            txn = base.fork();
            live = committed;
            break;
        default: {
            u64 want = 0;
            for (unsigned b = 0; b < 8; ++b)
                want |= u64{live[a - kLo + b]} << (8 * b);
            ASSERT_EQ(txn.read64(a), want) << "op " << op;
            break;
        }
        }
    }
    for (std::size_t i = 0; i < committed.size(); ++i)
        ASSERT_EQ(base.read8(kLo + i), committed[i]) << "byte " << i;
}

// --- copy-on-write fork semantics -----------------------------------------

TEST(SparseMemory, ForkSharesPagesUntilWritten)
{
    SparseMemory parent;
    parent.write64(0x1000, 0x11);
    parent.write64(0x5000, 0x22);

    SparseMemory child = parent.fork();
    EXPECT_EQ(child.read64(0x1000), 0x11u);
    EXPECT_EQ(child.read64(0x5000), 0x22u);
    EXPECT_EQ(child.pageCount(), parent.pageCount());

    // The fork is O(pages in the map), not O(bytes): until someone
    // writes, both sides read the same physical page.
    child.write64(0x1000, 0x33); // un-shares page 1 only
    EXPECT_EQ(child.read64(0x1000), 0x33u);
    EXPECT_EQ(parent.read64(0x1000), 0x11u);
    EXPECT_EQ(child.read64(0x5000), 0x22u);
}

TEST(SparseMemory, SiblingForksDirtyingSamePageStayIsolated)
{
    SparseMemory parent;
    const Addr addr = 9 * SparseMemory::kPageSize + 128;
    parent.write64(addr, 0xaaaa);

    SparseMemory a = parent.fork();
    SparseMemory b = parent.fork();

    // Both siblings dirty the SAME shared page; neither may observe the
    // other's write, and the parent keeps the original bytes.
    a.write64(addr, 0xbbbb);
    b.write64(addr + 8, 0xcccc);
    EXPECT_EQ(a.read64(addr), 0xbbbbu);
    EXPECT_EQ(a.read64(addr + 8), 0u);
    EXPECT_EQ(b.read64(addr), 0xaaaau);
    EXPECT_EQ(b.read64(addr + 8), 0xccccu);
    EXPECT_EQ(parent.read64(addr), 0xaaaau);
    EXPECT_EQ(parent.read64(addr + 8), 0u);
}

TEST(SparseMemory, ForkVersionsAdvanceIndependently)
{
    SparseMemory parent;
    const u64 page = 4;
    const Addr addr = page * SparseMemory::kPageSize;
    parent.write8(addr, 1);
    parent.write8(addr, 2);
    const u64 ver = parent.pageVersion(page);

    SparseMemory a = parent.fork();
    SparseMemory b = parent.fork();
    EXPECT_EQ(a.pageVersion(page), ver); // fork preserves versions

    a.write8(addr, 3);
    EXPECT_EQ(a.pageVersion(page), ver + 1);
    EXPECT_EQ(b.pageVersion(page), ver); // sibling untouched
    EXPECT_EQ(parent.pageVersion(page), ver);

    b.write8(addr, 4);
    b.write8(addr, 5);
    EXPECT_EQ(b.pageVersion(page), ver + 2);
    EXPECT_EQ(a.pageVersion(page), ver + 1);
}

TEST(SparseMemory, PageViewVersionPointerSurvivesCowClone)
{
    SparseMemory parent;
    const u64 page = 2;
    const Addr addr = page * SparseMemory::kPageSize;
    parent.write8(addr, 1);

    // The view's version pointer must track the owning image's slot even
    // after the underlying page is COW-cloned by a write (the CHG memo
    // holds such pointers across arbitrary interleaved forks).
    const SparseMemory::PageView view = parent.pageView(page);
    ASSERT_NE(view.version, nullptr);
    const u64 before = *view.version;

    SparseMemory child = parent.fork(); // share the page...
    parent.write8(addr, 2);             // ...then un-share by writing
    EXPECT_EQ(*view.version, before + 1);

    child.write8(addr, 3); // the child's version is a different counter
    EXPECT_EQ(*view.version, before + 1);
}

TEST(SparseMemory, ForkOfForkChainsSharing)
{
    SparseMemory gen0;
    gen0.write64(0x7000, 7);
    SparseMemory gen1 = gen0.fork();
    gen1.write64(0x8000, 8);
    SparseMemory gen2 = gen1.fork();

    EXPECT_EQ(gen2.read64(0x7000), 7u);
    EXPECT_EQ(gen2.read64(0x8000), 8u);
    gen2.write64(0x7000, 9);
    EXPECT_EQ(gen0.read64(0x7000), 7u);
    EXPECT_EQ(gen1.read64(0x7000), 7u);
    EXPECT_EQ(gen2.read64(0x7000), 9u);
}

// --- the page-table index -------------------------------------------------

/** Enough pages to grow the index (16 slots, at most half full) through
 *  four rehashes: 16 -> 32 -> 64 -> 128 -> 256. */
constexpr u64 kManyPages = 100;

TEST(SparseMemory, ViewsAndWriteCursorSurviveIndexGrowth)
{
    constexpr u64 kPage = SparseMemory::kPageSize;
    SparseMemory mem;
    mem.write8(0, 1);
    const SparseMemory::PageView first = mem.pageView(0);
    ASSERT_NE(first.version, nullptr);

    for (u64 p = 1; p <= kManyPages; ++p) {
        // The first write inserts the page and points the write cursor at
        // it; the second goes through the cursor.
        mem.write8(p * kPage, static_cast<u8>(p));
        mem.write8(p * kPage + 1, static_cast<u8>(p + 1));
        EXPECT_EQ(*first.version, mem.pageVersion(0));
    }
    mem.write8(2, 2);
    mem.write8(3, 3); // through the cursor again
    EXPECT_EQ(*first.version, mem.pageVersion(0));
    EXPECT_EQ(mem.pageVersion(0), 3u);
    for (u64 p = 1; p <= kManyPages; ++p) {
        EXPECT_EQ(mem.read8(p * kPage), static_cast<u8>(p));
        EXPECT_EQ(mem.read8(p * kPage + 1), static_cast<u8>(p + 1));
        EXPECT_EQ(mem.pageVersion(p), 2u);
    }

    // A fork leaves the source's slots where they were, and grows its own
    // table without disturbing the source.
    SparseMemory child = mem.fork();
    const SparseMemory::PageView child_first = child.pageView(0);
    for (u64 p = kManyPages + 1; p <= 3 * kManyPages; ++p)
        child.write8(p * kPage, 7);
    child.write8(0, 9);
    EXPECT_EQ(*child_first.version, child.pageVersion(0));
    EXPECT_EQ(*first.version, 3u);
    mem.write8(0, 4);
    EXPECT_EQ(*first.version, 4u);
    EXPECT_EQ(child.read8(0), 9);
    EXPECT_EQ(mem.read8(0), 4);

    // A move carries the slots, so the pointer now tracks the target.
    SparseMemory moved = std::move(mem);
    moved.write8(0, 5);
    EXPECT_EQ(*first.version, moved.pageVersion(0));
    EXPECT_EQ(moved.read8(0), 5);
    EXPECT_EQ(moved.read8(kManyPages * kPage), static_cast<u8>(kManyPages));
    EXPECT_EQ(mem.pageCount(), 0u);
}

TEST(SparseMemory, ForEachPageVisitsEveryPageOnce)
{
    SparseMemory mem;
    std::vector<u64> written;
    for (u64 i = 0; i < kManyPages; ++i) {
        const u64 page = (i * 7919) % 1000; // scattered, all distinct
        written.push_back(page);
        mem.write8(page * SparseMemory::kPageSize, 1);
        mem.write8(page * SparseMemory::kPageSize + 9, 2); // no new page
    }
    SparseMemory child = mem.fork();
    child.write8(5000 * SparseMemory::kPageSize, 3);

    std::vector<u64> seen;
    mem.forEachPage([&](u64 page, const u8 *bytes) {
        seen.push_back(page);
        EXPECT_EQ(bytes[0], 1);
        EXPECT_EQ(bytes[9], 2);
    });
    std::sort(written.begin(), written.end());
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, written);

    std::size_t child_pages = 0;
    child.forEachPage([&](u64, const u8 *) { ++child_pages; });
    EXPECT_EQ(child_pages, kManyPages + 1);
    EXPECT_EQ(child.pageCount(), kManyPages + 1);
}

TEST(SparseMemory, NoReadCreatesAPage)
{
    SparseMemory mem;
    for (u64 p = 0; p < kManyPages; p += 2)
        mem.write8(p * SparseMemory::kPageSize, 1);
    const std::size_t pages = mem.pageCount();
    const SparseMemory shared = mem.fork();

    u8 buf[3 * SparseMemory::kPageSize];
    for (u64 p = 1; p < 2 * kManyPages; p += 2) {
        const Addr a = p * SparseMemory::kPageSize;
        EXPECT_EQ(shared.read8(a), 0);
        EXPECT_EQ(shared.read(a + 8, 8), 0u);
        EXPECT_EQ(shared.pageVersion(p), 0u);
        EXPECT_EQ(shared.pageView(p).version, nullptr);
        EXPECT_EQ(shared.spanVersionSum(a, a + 1), 0u);
        shared.readBytes(a - SparseMemory::kPageSize, buf, sizeof(buf));
    }
    EXPECT_EQ(shared.pageCount(), pages);
    EXPECT_EQ(mem.pageCount(), pages);
    std::size_t visited = 0;
    shared.forEachPage([&](u64, const u8 *) { ++visited; });
    EXPECT_EQ(visited, pages);
}

} // namespace
} // namespace rev
