#include "validate/refstore.hpp"

namespace rev::validate
{

RefStore::RefStore(const sig::SigStore &store, const crypto::KeyVault *vault)
    : store_(store)
{
    for (const sig::ModuleSig &ms : store_.moduleSigs()) {
        auto shard = std::make_unique<Shard>();
        shard->sig = &ms;
        if (vault) {
            store_.loadInto(shard->tableMem);
            shard->reader = std::make_unique<sig::TableReader>(
                shard->tableMem, ms.tableBase, *vault);
        }
        shards_.push_back(std::move(shard));
    }
}

std::size_t
RefStore::shardFor(Addr addr) const
{
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const prog::Module &mod = *shards_[i]->sig->module;
        if (addr >= mod.base && addr < mod.codeEnd())
            return i;
    }
    return kNoShard;
}

sig::LookupResult
RefStore::lookup(std::size_t shard, Addr term, u32 hash) const
{
    const Shard &s = *shards_[shard];
    if (!s.reader || !s.reader->valid())
        return {};
    std::lock_guard<std::mutex> guard(s.lock);
    // No WalkNeeds: the verifier wants the unit's full target/pred lists
    // (it has no MRU cache whose miss the hints would early-exit).
    return s.reader->lookup(term, hash, s.sig->module->base);
}

sig::LookupResult
RefStore::lookupSite(std::size_t shard, Addr term) const
{
    const Shard &s = *shards_[shard];
    if (!s.reader || !s.reader->valid())
        return {};
    std::lock_guard<std::mutex> guard(s.lock);
    return s.reader->lookupSite(term, s.sig->module->base);
}

void
RefStore::lookupBatch(std::size_t shard,
                      const std::vector<LookupKey> &keys,
                      std::vector<sig::LookupResult> *out) const
{
    out->clear();
    out->resize(keys.size());
    const Shard &s = *shards_[shard];
    if (!s.reader || !s.reader->valid())
        return;
    const bool sites = s.reader->mode() == sig::ValidationMode::CfiOnly;
    const Addr base = s.sig->module->base;
    std::lock_guard<std::mutex> guard(s.lock);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        (*out)[i] = sites
                        ? s.reader->lookupSite(keys[i].term, base)
                        : s.reader->lookup(keys[i].term, keys[i].hash, base);
    }
}

} // namespace rev::validate
