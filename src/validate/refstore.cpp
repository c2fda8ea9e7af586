#include "validate/refstore.hpp"

namespace rev::validate
{

RefStore::RefStore(const sig::SigStore &store, const crypto::KeyVault *vault)
    : store_(store)
{
    if (vault)
        store_.loadInto(tables_);
    for (const sig::ModuleSig &ms : store_.moduleSigs()) {
        Shard &shard = shards_.emplace_back();
        shard.sig = &ms;
        if (vault)
            shard.reader = std::make_unique<sig::TableReader>(
                tables_, ms.tableBase, *vault);
    }
}

std::size_t
RefStore::shardFor(Addr addr) const
{
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const prog::Module &mod = *shards_[i].sig->module;
        if (addr >= mod.base && addr < mod.codeEnd())
            return i;
    }
    return kNoShard;
}

sig::LookupResult
RefStore::lookup(std::size_t shard, Addr term, u32 hash) const
{
    const Shard &s = shards_[shard];
    if (!s.reader || !s.reader->valid())
        return {};
    // No WalkNeeds: the verifier wants the unit's full target/pred lists
    // (it has no MRU cache whose miss the hints would early-exit).
    return s.reader->lookup(term, hash, s.sig->module->base);
}

sig::LookupResult
RefStore::lookupSite(std::size_t shard, Addr term) const
{
    const Shard &s = shards_[shard];
    if (!s.reader || !s.reader->valid())
        return {};
    return s.reader->lookupSite(term, s.sig->module->base);
}

} // namespace rev::validate
