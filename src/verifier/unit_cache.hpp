/**
 * @file
 * VerifiedUnitCache: the service-wide, sharded cross-session dedup
 * cache behind validate::UnitLookupCache.
 *
 * One instance is shared by every session of a VerifierService. Two
 * key spaces live side by side in the same sharded store:
 *
 *  - unit entries, keyed (RefStore*, term, digest) -> LookupResult:
 *    the decrypt-and-walk result REV sessions pay per static
 *    validation unit;
 *  - fold entries, keyed (chain, start, term, target, digest, rounds)
 *    -> next chain: one LO-FAT measurement-chain link.
 *
 * Sharding: keys hash onto a fixed power-of-two shard array, one mutex
 * + map + FIFO per shard, so sessions on different workers contend on
 * 1/N of the lock space. Capacity is bounded per shard; insertion
 * beyond the bound evicts in FIFO order (the hit/miss/eviction
 * counters surface through the service into BENCH_verifier.json).
 *
 * Correctness: values are pure functions of their keys (the RefStore
 * pointer namespaces different attested programs), so a hit is
 * bit-identical to the computation it replaces and dedup on/off can
 * never move a verdict — tests/verifier/unit_cache_test.cpp pins this,
 * and the TSan job hammers the shards concurrently.
 */

#ifndef REV_VERIFIER_UNIT_CACHE_HPP
#define REV_VERIFIER_UNIT_CACHE_HPP

#include <atomic>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "validate/stream_verifier.hpp"

namespace rev::verifier
{

/** Aggregate counters of one cache (monotonic over its lifetime). */
struct UnitCacheStats
{
    u64 hits = 0;
    u64 misses = 0; ///< failed lookups (== inserts sans duplicates)
    u64 evictions = 0;
    u64 entries = 0; ///< currently resident (units + folds)
};

/** Sharded, bounded, thread-safe verified-unit cache. */
class VerifiedUnitCache final : public validate::UnitLookupCache
{
  public:
    /**
     * @param maxEntries Total capacity (units + folds) across shards.
     * @param shards     Shard count; rounded up to a power of two.
     */
    explicit VerifiedUnitCache(std::size_t maxEntries,
                               std::size_t shards = 16);

    bool lookupUnit(const validate::RefStore *ns, Addr term, u32 key,
                    sig::LookupResult *out) const override;
    void insertUnit(const validate::RefStore *ns, Addr term, u32 key,
                    const sig::LookupResult &val) override;

    bool lookupFold(const crypto::Digest &chain, const FoldKey &key,
                    crypto::Digest *out) const override;
    void insertFold(const crypto::Digest &chain, const FoldKey &key,
                    const crypto::Digest &next) override;

    UnitCacheStats stats() const;

  private:
    /** Uniform key for both entry kinds. kind disambiguates; fold keys
     *  carry the chain digest, unit keys the RefStore pointer. */
    struct Key
    {
        u8 kind = 0; ///< 0 = unit, 1 = fold
        const void *ns = nullptr;
        crypto::Digest chain{};
        Addr a = 0, b = 0, c = 0;
        u32 d = 0, e = 0;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };

    struct Value
    {
        sig::LookupResult unit;
        crypto::Digest fold{};
    };

    struct Shard
    {
        mutable std::mutex lock;
        std::unordered_map<Key, Value, KeyHash> map;
        std::deque<Key> fifo; ///< insertion order, drives eviction
    };

    void insert(const Key &k, std::size_t keyHash, Value &&v);

    Shard &shardFor(std::size_t keyHash) const;

    mutable std::vector<Shard> shards_;
    std::size_t shardMask_ = 0;
    std::size_t perShardCap_ = 0;

    // Every lookup from every worker bumps one of these: a line each,
    // so they never share one with whatever the heap puts next door
    // (that false sharing cost ~15 % of 2-worker throughput).
    alignas(64) mutable std::atomic<u64> hits_{0};
    alignas(64) mutable std::atomic<u64> misses_{0};
    alignas(64) std::atomic<u64> evictions_{0};
};

} // namespace rev::verifier

#endif // REV_VERIFIER_UNIT_CACHE_HPP
