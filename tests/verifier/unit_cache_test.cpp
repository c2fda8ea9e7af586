/**
 * @file
 * VerifiedUnitCache tests: counter accounting, FIFO eviction bounds,
 * RefStore-pointer namespacing, fold-entry purity, a multi-thread
 * shard hammer (the TSan job runs this battery), and the top-level
 * dedup-on/off bit-identical-verdict pin over real captured streams.
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "validate/stream_verifier.hpp"
#include "verifier/unit_cache.hpp"
#include "verifier_testutil.hpp"

namespace rev::verifier
{
namespace
{

using validate::RefStore;

sig::LookupResult
unitResult(u32 tag)
{
    sig::LookupResult r;
    r.found = true;
    r.targets = {tag, tag + 1};
    return r;
}

crypto::Digest
digest(u8 fill)
{
    crypto::Digest d;
    d.fill(fill);
    return d;
}

TEST(VerifiedUnitCache, HitMissAndInsertAccounting)
{
    VerifiedUnitCache cache(1024);
    const auto *ns = reinterpret_cast<const RefStore *>(0x1000);

    sig::LookupResult out;
    EXPECT_FALSE(cache.lookupUnit(ns, 0x40, 7, &out));
    cache.insertUnit(ns, 0x40, 7, unitResult(3));
    ASSERT_TRUE(cache.lookupUnit(ns, 0x40, 7, &out));
    EXPECT_EQ(out.targets, unitResult(3).targets);

    const UnitCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.evictions, 0u);
}

TEST(VerifiedUnitCache, RefStorePointerNamespacesKeys)
{
    VerifiedUnitCache cache(1024);
    const auto *nsA = reinterpret_cast<const RefStore *>(0x1000);
    const auto *nsB = reinterpret_cast<const RefStore *>(0x2000);

    cache.insertUnit(nsA, 0x40, 7, unitResult(1));
    sig::LookupResult out;
    // Same (term, digest) under another attested program: a miss, never
    // cross-talk.
    EXPECT_FALSE(cache.lookupUnit(nsB, 0x40, 7, &out));
    ASSERT_TRUE(cache.lookupUnit(nsA, 0x40, 7, &out));
    EXPECT_EQ(out.targets, unitResult(1).targets);
}

TEST(VerifiedUnitCache, FoldEntriesKeyOnChainAndBlock)
{
    VerifiedUnitCache cache(1024);
    validate::UnitLookupCache::FoldKey key{0x100, 0x140, 0x200, 77, 16};

    cache.insertFold(digest(1), key, digest(9));
    crypto::Digest out;
    ASSERT_TRUE(cache.lookupFold(digest(1), key, &out));
    EXPECT_EQ(out, digest(9));
    // Same block, different incoming chain: distinct link.
    EXPECT_FALSE(cache.lookupFold(digest(2), key, &out));
    // Same chain, different block: distinct link.
    validate::UnitLookupCache::FoldKey other = key;
    other.target = 0x204;
    EXPECT_FALSE(cache.lookupFold(digest(1), other, &out));
}

TEST(VerifiedUnitCache, EvictionBoundsResidentEntries)
{
    // 4 shards x 8 entries; inserting far more must evict, not grow.
    VerifiedUnitCache cache(32, 4);
    const auto *ns = reinterpret_cast<const RefStore *>(0x1000);
    for (u32 i = 0; i < 1000; ++i)
        cache.insertUnit(ns, 0x40 + i * 4, i, unitResult(i));

    const UnitCacheStats s = cache.stats();
    EXPECT_LE(s.entries, 32u);
    EXPECT_GE(s.evictions, 1000u - 32u);

    // Survivors are the FIFO tail and still readable.
    sig::LookupResult out;
    EXPECT_TRUE(cache.lookupUnit(ns, 0x40 + 999 * 4, 999, &out));
}

TEST(VerifiedUnitCache, DuplicateInsertKeepsFirstValueAndEntryCount)
{
    VerifiedUnitCache cache(1024);
    const auto *ns = reinterpret_cast<const RefStore *>(0x1000);
    cache.insertUnit(ns, 0x40, 7, unitResult(1));
    cache.insertUnit(ns, 0x40, 7, unitResult(2)); // racing-miss replay
    EXPECT_EQ(cache.stats().entries, 1u);
    sig::LookupResult out;
    ASSERT_TRUE(cache.lookupUnit(ns, 0x40, 7, &out));
    EXPECT_EQ(out.targets, unitResult(1).targets);
}

TEST(VerifiedUnitCache, ConcurrentHammerStaysConsistent)
{
    // 4 threads share a small cache and overlap key ranges, forcing
    // shard-lock contention, racing inserts, and evictions at once.
    VerifiedUnitCache cache(256, 4);
    const auto *ns = reinterpret_cast<const RefStore *>(0x1000);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (u32 round = 0; round < 2000; ++round) {
                const u32 i = (round + t * 331) % 512;
                sig::LookupResult out;
                if (!cache.lookupUnit(ns, 0x40 + i * 4, i, &out))
                    cache.insertUnit(ns, 0x40 + i * 4, i, unitResult(i));
                else
                    // Purity: whoever inserted it stored the same value.
                    EXPECT_EQ(out.targets, unitResult(i).targets);

                validate::UnitLookupCache::FoldKey key{i, i + 1, i + 2, i,
                                                       16};
                crypto::Digest fold;
                if (!cache.lookupFold(digest(static_cast<u8>(i)), key,
                                      &fold))
                    cache.insertFold(digest(static_cast<u8>(i)), key,
                                     digest(static_cast<u8>(i + 1)));
                else
                    EXPECT_EQ(fold, digest(static_cast<u8>(i + 1)));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const UnitCacheStats s = cache.stats();
    EXPECT_LE(s.entries, 256u);
    EXPECT_EQ(s.hits + s.misses, 4u * 2000u * 2u);
}

TEST(DedupEquivalence, VerdictsBitIdenticalWithAndWithoutCache)
{
    // The top-level purity pin: a session adjudicated through the
    // shared cache renders byte-identical verdicts to one without it —
    // including a second pass where every lookup hits.
    const test::Corpus &c = test::corpus();
    VerifiedUnitCache cache(1u << 16);

    for (const test::CapturedStream *cap : {&c.rev, &c.lofat}) {
        validate::StreamVerifier plain(*c.refs);
        plain.feed(cap->stream.data(), cap->stream.size());
        plain.finish();

        for (int pass = 0; pass < 2; ++pass) {
            validate::StreamVerifier cached(*c.refs, &cache);
            cached.feed(cap->stream.data(), cap->stream.size());
            cached.finish();

            const validate::StreamVerdict &a = plain.verdict();
            const validate::StreamVerdict &b = cached.verdict();
            EXPECT_EQ(a.complete, b.complete);
            EXPECT_EQ(a.detected, b.detected);
            EXPECT_EQ(a.reason, b.reason);
            EXPECT_EQ(a.bbValidated, b.bbValidated);
            EXPECT_EQ(a.violations, b.violations);
            EXPECT_EQ(a.chainUpdates, b.chainUpdates);
            EXPECT_EQ(a.bufferSpills, b.bufferSpills);
            EXPECT_EQ(a.spillBytes, b.spillBytes);
            EXPECT_EQ(a.unattestedBlocks, b.unattestedBlocks);
            EXPECT_EQ(a.edgeViolations, b.edgeViolations);
            if (pass == 1) {
                EXPECT_GT(cached.dedupHits(), 0u);
            }
        }
    }
}

} // namespace
} // namespace rev::verifier
