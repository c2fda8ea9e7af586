/**
 * @file
 * TLB hierarchy (Table 2): 32-entry L1 I-TLB and 128-entry L1 D-TLB, each
 * backed by a 512-entry L2 TLB. The D-TLB is shared with the signature
 * cache through an extra port (Sec. VIII), so SC fills translate through
 * the same structures as data accesses.
 */

#ifndef REV_MEM_TLB_HPP
#define REV_MEM_TLB_HPP

#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace rev::mem
{

/**
 * Fully-associative LRU TLB of page-granular entries.
 */
class Tlb
{
  public:
    Tlb(std::string name, unsigned entries, unsigned page_shift = 12);

    /** Look up (and allocate on miss). Returns true on hit. */
    bool access(Addr addr);

    /** Tag check without state change. */
    bool probe(Addr addr) const;

    void reset();

    /** Zero the counters but keep the entries (warm measurement). */
    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
    }

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    void addStats(stats::StatGroup &group) const;

  private:
    static constexpr u32 kNil = ~u32{0};

    /** One entry, linked into the recency list by index. */
    struct Node
    {
        u64 page;
        u32 prev; ///< towards the MRU end
        u32 next; ///< towards the LRU end
    };

    void unlink(u32 n);
    void pushFront(u32 n);

    // True LRU with O(1) lookup: a recency list threaded through a fixed
    // node array plus a page index. (A linear tag scan is what the
    // hardware does in parallel; the index only speeds the simulation,
    // semantics are identical.) Everything is flat, so snapshot capture
    // and fork copy the TLB with a few memcpys.
    std::string name_;
    unsigned pageShift_;
    std::size_t capacity_;
    std::vector<Node> nodes_; ///< grows to capacity_, then recycles the LRU
    u32 mru_ = kNil;
    u32 lru_ = kNil;
    FlatMap<u64, u32> index_; ///< page -> node
    stats::Counter hits_, misses_;
};

/** TLB timing parameters. */
struct TlbConfig
{
    unsigned itlbEntries = 32;
    unsigned dtlbEntries = 128;
    unsigned l2Entries = 512;
    unsigned l2Latency = 6;       ///< extra cycles on an L1 TLB miss
    unsigned pageWalkLatency = 40; ///< extra cycles on an L2 TLB miss
};

/**
 * Two-level TLB hierarchy. translate() returns the extra latency the
 * translation adds (0 on an L1 hit).
 */
class TlbHierarchy
{
  public:
    /** @param prefix Prepended to the stat names ("" for the historical
     *  single-core rows, "cK." for core K's private TLBs). */
    explicit TlbHierarchy(const TlbConfig &cfg = {},
                          const std::string &prefix = "");

    /** @param instr Use the I-TLB path (otherwise D-TLB, shared with SC). */
    unsigned translate(Addr addr, bool instr);

    void reset();

    /** Zero the counters but keep the entries. */
    void
    resetStats()
    {
        itlb_.resetStats();
        dtlb_.resetStats();
        l2_.resetStats();
        pageWalks_.reset();
    }

    const Tlb &itlb() const { return itlb_; }
    const Tlb &dtlb() const { return dtlb_; }
    const Tlb &l2() const { return l2_; }
    u64 pageWalks() const { return pageWalks_; }

    void addStats(stats::StatGroup &group) const;

  private:
    TlbConfig cfg_;
    std::string prefix_;
    Tlb itlb_, dtlb_, l2_;
    stats::Counter pageWalks_;
};

} // namespace rev::mem

#endif // REV_MEM_TLB_HPP
