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

  public:
    Chg(const SparseMemory &mem, const ChgConfig &cfg = {});

    /**
     * Digest of the block [start, end) terminated at @p term, as hashed
     * from the bytes currently in memory: a memo hit unless a store
     * landed on the block's pages since it was last hashed.
     */
    u32 digest(Addr start, Addr term, Addr end);

    /** Cycle the digest becomes available given the fetch-complete time. */
    Cycle readyAt(Cycle fetch_done) const { return fetch_done + cfg_.latency; }

    /** A misprediction flushed the in-flight pipeline state. */
    void flush() { ++flushes_; }

    /** Code space was modified externally: recompute future digests. */
    void invalidate() { cache_.clear(); }

    unsigned latency() const { return cfg_.latency; }
    u64 blocksHashed() const { return blocksHashed_; }
    u64 flushes() const { return flushes_; }

    void addStats(stats::StatGroup &group) const;

    /**
     * Copyable mid-run state — digest memo and counters —
     * for snapshot capture. The memory binding is not part of the state:
     * a fork restores into a Chg constructed over its own (forked)
     * memory, whose page versions match the source's, so memoized
     * digests revalidate identically.
     */
    struct State
    {
        std::unordered_map<Key, Memo, KeyHash> cache;
        stats::Counter blocksHashed, flushes;
    };

    State
    saveState() const
    {
        return State{cache_, blocksHashed_, flushes_};
    }

    void
    restoreState(const State &state)
    {
        cache_ = state.cache;
        blocksHashed_ = state.blocksHashed;
        flushes_ = state.flushes;
    }

  private:
    const SparseMemory &mem_;
    ChgConfig cfg_;
    std::unordered_map<Key, Memo, KeyHash> cache_;
    std::vector<u8> scratch_; ///< reused block-byte buffer
    stats::Counter blocksHashed_, flushes_;
};

} // namespace rev::validate

#endif // REV_VALIDATE_CHG_HPP
