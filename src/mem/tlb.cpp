#include "mem/tlb.hpp"

namespace rev::mem
{

Tlb::Tlb(std::string name, unsigned entries, unsigned page_shift)
    : name_(std::move(name)), pageShift_(page_shift), capacity_(entries)
{
    nodes_.reserve(entries);
}

void
Tlb::unlink(u32 n)
{
    Node &node = nodes_[n];
    (node.prev == kNil ? mru_ : nodes_[node.prev].next) = node.next;
    (node.next == kNil ? lru_ : nodes_[node.next].prev) = node.prev;
}

void
Tlb::pushFront(u32 n)
{
    Node &node = nodes_[n];
    node.prev = kNil;
    node.next = mru_;
    (mru_ == kNil ? lru_ : nodes_[mru_].prev) = n;
    mru_ = n;
}

bool
Tlb::access(Addr addr)
{
    const u64 page = addr >> pageShift_;
    if (const u32 *n = index_.find(page)) {
        if (*n != mru_) { // refresh to MRU
            unlink(*n);
            pushFront(*n);
        }
        ++hits_;
        return true;
    }
    ++misses_;
    if (capacity_ == 0)
        return false;
    u32 n;
    if (nodes_.size() < capacity_) {
        n = static_cast<u32>(nodes_.size());
        nodes_.push_back(Node{page, kNil, kNil});
    } else {
        n = lru_; // evict the least recently used entry
        index_.erase(nodes_[n].page);
        unlink(n);
        nodes_[n].page = page;
    }
    pushFront(n);
    index_[page] = n;
    return false;
}

bool
Tlb::probe(Addr addr) const
{
    return index_.contains(addr >> pageShift_);
}

void
Tlb::reset()
{
    nodes_.clear();
    mru_ = lru_ = kNil;
    index_.clear();
    hits_.reset();
    misses_.reset();
}

void
Tlb::addStats(stats::StatGroup &group) const
{
    group.add(name_ + ".hits", &hits_);
    group.add(name_ + ".misses", &misses_);
}

TlbHierarchy::TlbHierarchy(const TlbConfig &cfg, const std::string &prefix)
    : cfg_(cfg), prefix_(prefix), itlb_(prefix + "itlb", cfg.itlbEntries),
      dtlb_(prefix + "dtlb", cfg.dtlbEntries),
      l2_(prefix + "l2tlb", cfg.l2Entries)
{
}

unsigned
TlbHierarchy::translate(Addr addr, bool instr)
{
    Tlb &l1 = instr ? itlb_ : dtlb_;
    if (l1.access(addr))
        return 0;
    if (l2_.access(addr))
        return cfg_.l2Latency;
    ++pageWalks_;
    return cfg_.l2Latency + cfg_.pageWalkLatency;
}

void
TlbHierarchy::reset()
{
    itlb_.reset();
    dtlb_.reset();
    l2_.reset();
    pageWalks_.reset();
}

void
TlbHierarchy::addStats(stats::StatGroup &group) const
{
    itlb_.addStats(group);
    dtlb_.addStats(group);
    l2_.addStats(group);
    group.add(prefix_ + "tlb.page_walks", &pageWalks_);
}

} // namespace rev::mem
