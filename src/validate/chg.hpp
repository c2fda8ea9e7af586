/**
 * @file
 * Crypto Hash Generator (CHG) — the pipelined hash unit fed by the fetch
 * stages (Sec. IV.A, Sec. VI).
 *
 * Timing: the unit is pipelined with latency H (default 16, overlapping
 * the S pipeline stages between fetch and commit); the digest of a basic
 * block is available H cycles after its last byte enters the pipe.
 * Mispredictions flush the in-flight partial state (the model counts the
 * flush; the refetched correct path re-feeds the bytes).
 *
 * Function: the real 5-round CubeHash digest of the *fetched* bytes, bound
 * to the (start, term) address pair — identical to the builder's reference
 * computation only when the code in memory is genuine. Digests of
 * unmodified blocks are memoized; each memo entry records the summed
 * write-version of the pages it hashed, so *any* store landing on those
 * pages — the program's own stores included — forces a recompute from the
 * current bytes. invalidate() additionally drops the whole memo (explicit
 * resets, e.g. reloadProgram()).
 */

#ifndef REV_VALIDATE_CHG_HPP
#define REV_VALIDATE_CHG_HPP

#include <array>
#include <unordered_map>
#include <vector>

#include "common/sparse_memory.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace rev::validate
{

/** CHG parameters. */
struct ChgConfig
{
    unsigned latency = 16; ///< H, pipeline depth of the hash unit
    unsigned hashRounds = 5;
};

/**
 * The CHG unit.
 */
class Chg
{
  public:
    /** Depth of the lane queue that flushLanes() hashes in one batch. */
    static constexpr unsigned kLanes = 4;

  private:
    // Implementation types first: the public State below aggregates them.
    struct Key
    {
        Addr start;
        Addr term;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return std::hash<u64>{}(k.start * 0x9e3779b97f4a7c15ULL ^ k.term);
        }
    };

    struct Memo
    {
        u32 hash;
        u64 verSum; ///< spanVersionSum of [start, end) when hashed
    };

    /** One staged digest request: key + byte snapshot taken at queue time. */
    struct PendingLane
    {
        Key key{};
        Addr end = 0;
        u64 verSum = 0;
        std::vector<u8> bytes; ///< reused across flushes
    };

  public:
    Chg(const SparseMemory &mem, const ChgConfig &cfg = {});

    /**
     * Digest of the block [start, end) terminated at @p term, as hashed
     * from the bytes currently in memory. If the block is staged in the
     * lane queue, the queue is flushed first.
     */
    u32 digest(Addr start, Addr term, Addr end);

    /**
     * Stage a digest request in the lane queue without resolving it. The
     * block's bytes and page-version sum are snapshotted now — exactly
     * what an immediate digest() would hash — so a later flush computes
     * the same value regardless of intervening stores, and blocksHashed
     * counts here, where the scalar path would have hashed. Up to kLanes
     * requests accumulate and are hashed in one sig::bbHashBatch call by
     * flushLanes() (or transparently by digest() / a full queue).
     * Memo-fresh requests are dropped immediately, like a memo hit.
     */
    void queueDigest(Addr start, Addr term, Addr end);

    /** Hash every staged request in one sig::bbHashBatch call. */
    void flushLanes();

    /** Host-side introspection of the batched path (not simulated stats). */
    u64 laneFlushes() const { return laneFlushes_; }
    u64 laneBlocksHashed() const { return laneBlocksHashed_; }

    /** Cycle the digest becomes available given the fetch-complete time. */
    Cycle readyAt(Cycle fetch_done) const { return fetch_done + cfg_.latency; }

    /** A misprediction flushed the in-flight pipeline state. */
    void flush() { ++flushes_; }

    /**
     * Code space was modified externally: recompute future digests.
     * Staged lane requests are dropped (their hash was already counted
     * when staged, matching the scalar path's count-at-fetch).
     */
    void
    invalidate()
    {
        cache_.clear();
        lanesUsed_ = 0;
    }

    unsigned latency() const { return cfg_.latency; }
    u64 blocksHashed() const { return blocksHashed_; }
    u64 flushes() const { return flushes_; }

    void addStats(stats::StatGroup &group) const;

    /**
     * Copyable mid-run state — digest memo, staged lane queue, counters —
     * for snapshot capture. The memory binding is not part of the state:
     * a fork restores into a Chg constructed over its own (forked)
     * memory, whose page versions match the source's, so memoized
     * digests revalidate identically.
     */
    struct State
    {
        std::unordered_map<Key, Memo, KeyHash> cache;
        std::array<PendingLane, kLanes> lanes;
        unsigned lanesUsed = 0;
        u64 laneFlushes = 0;
        u64 laneBlocksHashed = 0;
        stats::Counter blocksHashed, flushes;
    };

    State
    saveState() const
    {
        return State{cache_,      lanes_,           lanesUsed_,
                     laneFlushes_, laneBlocksHashed_, blocksHashed_,
                     flushes_};
    }

    void
    restoreState(const State &state)
    {
        cache_ = state.cache;
        lanes_ = state.lanes;
        lanesUsed_ = state.lanesUsed;
        laneFlushes_ = state.laneFlushes;
        laneBlocksHashed_ = state.laneBlocksHashed;
        blocksHashed_ = state.blocksHashed;
        flushes_ = state.flushes;
    }

  private:
    bool pendingIndex(const Key &key, unsigned *idx) const;

    const SparseMemory &mem_;
    ChgConfig cfg_;
    std::unordered_map<Key, Memo, KeyHash> cache_;
    std::vector<u8> scratch_; ///< reused block-byte buffer
    std::array<PendingLane, kLanes> lanes_;
    unsigned lanesUsed_ = 0;
    u64 laneFlushes_ = 0, laneBlocksHashed_ = 0;
    stats::Counter blocksHashed_, flushes_;
};

} // namespace rev::validate

#endif // REV_VALIDATE_CHG_HPP
