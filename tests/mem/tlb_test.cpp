/**
 * @file
 * TLB hierarchy tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "common/random.hpp"
#include "mem/tlb.hpp"

namespace rev::mem
{
namespace
{

TEST(Tlb, MissThenHitSamePage)
{
    Tlb tlb("t", 4);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1fff)); // same 4K page
    EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb("t", 2);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.access(0x1000);  // refresh
    tlb.access(0x3000);  // evicts 0x2000
    EXPECT_TRUE(tlb.probe(0x1000));
    EXPECT_FALSE(tlb.probe(0x2000));
}

TEST(Tlb, MatchesReferenceLruAndCopiesIndependently)
{
    // The flat node-array LRU against a plain MRU-ordered list.
    Tlb tlb("t", 16);
    std::list<u64> ref; // front = most recently used page
    Rng rng(3);
    auto refAccess = [&](u64 page) {
        const auto it = std::find(ref.begin(), ref.end(), page);
        const bool hit = it != ref.end();
        if (hit)
            ref.erase(it);
        ref.push_front(page);
        if (ref.size() > 16)
            ref.pop_back();
        return hit;
    };
    for (int i = 0; i < 20000; ++i) {
        const u64 page = rng.below(40);
        ASSERT_EQ(tlb.access(page << 12), refAccess(page)) << i;
    }

    Tlb copy = tlb;
    std::list<u64> copy_ref = ref;
    for (int i = 0; i < 2000; ++i) {
        const u64 page = rng.below(40);
        ASSERT_EQ(copy.access(page << 12), refAccess(page)) << i;
    }
    std::swap(ref, copy_ref);
    for (int i = 0; i < 2000; ++i) {
        const u64 page = rng.below(40);
        ASSERT_EQ(tlb.access(page << 12), refAccess(page)) << i;
    }
    for (u64 page = 0; page < 40; ++page)
        EXPECT_EQ(tlb.probe(page << 12),
                  std::find(ref.begin(), ref.end(), page) != ref.end());
}

TEST(TlbHierarchy, L1HitIsFree)
{
    TlbHierarchy h;
    h.translate(0x1000, false);
    EXPECT_EQ(h.translate(0x1000, false), 0u);
}

TEST(TlbHierarchy, L2HitCostsL2Latency)
{
    TlbConfig cfg;
    cfg.dtlbEntries = 1;
    TlbHierarchy h(cfg);
    h.translate(0x1000, false); // fills D-TLB + L2
    h.translate(0x2000, false); // evicts 0x1000 from 1-entry D-TLB
    EXPECT_EQ(h.translate(0x1000, false), cfg.l2Latency);
}

TEST(TlbHierarchy, ColdMissPaysPageWalk)
{
    TlbConfig cfg;
    TlbHierarchy h(cfg);
    EXPECT_EQ(h.translate(0x5000, false),
              cfg.l2Latency + cfg.pageWalkLatency);
    EXPECT_EQ(h.pageWalks(), 1u);
}

TEST(TlbHierarchy, InstrAndDataPathsSeparateL1)
{
    TlbHierarchy h;
    h.translate(0x1000, true); // I-TLB only
    // Data access to the same page: misses D-TLB but hits shared L2.
    EXPECT_GT(h.translate(0x1000, false), 0u);
    EXPECT_EQ(h.translate(0x1000, false), 0u);
}

} // namespace
} // namespace rev::mem
