#include "validate/chg.hpp"

#include "sig/table.hpp"

namespace rev::validate
{

Chg::Chg(const SparseMemory &mem, const ChgConfig &cfg)
    : mem_(mem), cfg_(cfg)
{
}

u32
Chg::digest(Addr start, Addr term, Addr end)
{
    const Key key{start, term};
    const u64 ver = mem_.spanVersionSum(start, end);
    const Memo *memo = cache_.find(key);
    if (memo && memo->verSum == ver)
        return memo->hash;

    ++blocksHashed_;
    scratch_.resize(end - start);
    mem_.readBytes(start, scratch_.data(), scratch_.size());
    const u32 h = sig::bbHashBytes(scratch_.data(), scratch_.size(), start,
                                   term, cfg_.hashRounds);
    cache_[key] = Memo{h, ver};
    return h;
}

void
Chg::addStats(stats::StatGroup &group) const
{
    group.add("chg.blocks_hashed", &blocksHashed_);
    group.add("chg.flushes", &flushes_);
}

} // namespace rev::validate
