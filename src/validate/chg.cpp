#include "validate/chg.hpp"

#include <vector>

#include "sig/table.hpp"

namespace rev::validate
{

Chg::Chg(const SparseMemory &mem, const ChgConfig &cfg)
    : mem_(mem), cfg_(cfg)
{
}

bool
Chg::pendingIndex(const Key &key, unsigned *idx) const
{
    for (unsigned i = 0; i < lanesUsed_; ++i) {
        if (lanes_[i].key == key) {
            *idx = i;
            return true;
        }
    }
    return false;
}

u32
Chg::digest(Addr start, Addr term, Addr end)
{
    const Key key{start, term};
    unsigned idx;
    if (pendingIndex(key, &idx))
        flushLanes();

    const u64 ver = mem_.spanVersionSum(start, end);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.verSum == ver)
        return it->second.hash;

    ++blocksHashed_;
    scratch_.resize(end - start);
    mem_.readBytes(start, scratch_.data(), scratch_.size());
    const u32 h = sig::bbHashBytes(scratch_.data(), scratch_.size(), start,
                                   term, cfg_.hashRounds);
    cache_[key] = Memo{h, ver};
    return h;
}

void
Chg::queueDigest(Addr start, Addr term, Addr end)
{
    const Key key{start, term};
    const u64 ver = mem_.spanVersionSum(start, end);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.verSum == ver)
        return; // memo hit: nothing to hash, nothing to count

    unsigned idx;
    if (pendingIndex(key, &idx)) {
        if (lanes_[idx].verSum == ver)
            return; // identical request already staged
        // The code changed under a staged request: resolve the old bytes
        // first (the scalar path would have memoized them), then restage.
        flushLanes();
    }
    if (lanesUsed_ == kLanes)
        flushLanes();

    PendingLane &lane = lanes_[lanesUsed_++];
    lane.key = key;
    lane.end = end;
    lane.verSum = ver;
    lane.bytes.resize(end - start);
    mem_.readBytes(start, lane.bytes.data(), lane.bytes.size());
    ++blocksHashed_; // counted where the scalar path would have hashed
}

void
Chg::flushLanes()
{
    if (lanesUsed_ == 0)
        return;

    sig::BbHashJob jobs[kLanes];
    for (unsigned i = 0; i < lanesUsed_; ++i)
        jobs[i] = {lanes_[i].bytes.data(), lanes_[i].bytes.size(),
                   lanes_[i].key.start, lanes_[i].key.term};
    u32 out[kLanes];
    sig::bbHashBatch(jobs, lanesUsed_, cfg_.hashRounds, out);
    for (unsigned i = 0; i < lanesUsed_; ++i)
        cache_[lanes_[i].key] = Memo{out[i], lanes_[i].verSum};

    ++laneFlushes_;
    laneBlocksHashed_ += lanesUsed_;
    lanesUsed_ = 0;
}

void
Chg::addStats(stats::StatGroup &group) const
{
    group.add("chg.blocks_hashed", &blocksHashed_);
    group.add("chg.flushes", &flushes_);
}

} // namespace rev::validate
