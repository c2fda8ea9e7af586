#include "validate/stream_verifier.hpp"

#include <algorithm>

#include "validate/verdict.hpp"

namespace rev::validate
{

using sig::ValidationMode;

namespace
{

/** Discard the consumed prefix once it exceeds this. */
constexpr std::size_t kCompactThreshold = 64 * 1024;

} // namespace

bool
StreamVerifier::feed(const u8 *data, std::size_t n)
{
    if (verdict_.complete)
        return false;
    buf_.insert(buf_.end(), data, data + n);
    bytesConsumed_ += n;
    processAvailable();
    return !verdict_.complete;
}

void
StreamVerifier::finish()
{
    if (verdict_.complete)
        return;
    processAvailable();
    if (!verdict_.complete)
        transportFail(verdict::reasonTruncatedStream());
}

void
StreamVerifier::abortMalformed()
{
    if (verdict_.complete)
        return;
    transportFail(verdict::reasonMalformedStream());
}

void
StreamVerifier::processAvailable()
{
    if (!haveHeader_ && !verdict_.complete) {
        const StreamReader::Status st =
            reader_.tryHeader(buf_.data(), buf_.size(), &hdr_);
        if (st == StreamReader::Status::Malformed) {
            transportFail(verdict::reasonMalformedStream());
            return;
        }
        if (st == StreamReader::Status::NeedMore)
            return;
        haveHeader_ = true;
        enabled_ = hdr_.startEnabled;
        revRule_ = verdict::RevRule(
            hdr_.mode, static_cast<ReturnValidation>(hdr_.returnValidation));
        // The prover's claimed validation mode must be the mode the
        // reference tables were built for; anything else is garbage.
        if (hdr_.mode != refs_.mode()) {
            transportFail(verdict::reasonMalformedStream());
            return;
        }
    }

    prefetchLookups();

    MeasurementEvent ev;
    while (!verdict_.complete) {
        const StreamReader::Status st =
            reader_.tryNext(buf_.data(), buf_.size(), &ev);
        if (st == StreamReader::Status::Malformed) {
            transportFail(verdict::reasonMalformedStream());
            return;
        }
        if (st == StreamReader::Status::NeedMore)
            break;
        handleEvent(ev);
    }

    if (reader_.offset() > kCompactThreshold) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(
                                      reader_.offset()));
        reader_.rebase(reader_.offset());
    }
}

void
StreamVerifier::prefetchLookups()
{
    if (!haveHeader_ || verdict_.complete || hdr_.backend != Backend::Rev)
        return;

    // Scan ahead over every decodable event with a throwaway cursor and
    // collect the reference keys the verdict loop will need, grouped by
    // shard; one lookupBatch per shard amortizes its lock. Results land
    // in the session memo, so repeated blocks (loops) cost one walk.
    std::vector<std::vector<RefStore::LookupKey>> perShard(
        refs_.shardCount());
    StreamReader scan = reader_;
    MeasurementEvent ev;
    while (scan.tryNext(buf_.data(), buf_.size(), &ev) ==
           StreamReader::Status::Ok) {
        if (ev.kind != EventKind::Block)
            continue;
        const u32 key =
            hdr_.mode == ValidationMode::CfiOnly ? 0 : ev.codeDigest;
        auto &units = memo_[ev.term];
        const bool known =
            std::any_of(units.begin(), units.end(),
                        [&](const auto &u) { return u.first == key; });
        if (known)
            continue;
        const std::size_t shard = refs_.shardFor(ev.term);
        if (shard == kNoShard)
            continue; // resolve() renders these as not-found directly
        // A session elsewhere may already have paid for this unit: the
        // shared cache returns the identical table-walk result without
        // touching the shard lock.
        if (dedup_ != nullptr) {
            sig::LookupResult cached;
            if (dedup_->lookupUnit(&refs_, ev.term, key, &cached)) {
                ++dedupHits_;
                units.emplace_back(key, std::move(cached));
                continue;
            }
        }
        // Reserve the memo slot so the scan queues each unit once.
        units.emplace_back(key, sig::LookupResult{});
        perShard[shard].push_back({ev.term, key});
    }

    std::vector<sig::LookupResult> results;
    for (std::size_t shard = 0; shard < perShard.size(); ++shard) {
        if (perShard[shard].empty())
            continue;
        refs_.lookupBatch(shard, perShard[shard], &results);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const RefStore::LookupKey &k = perShard[shard][i];
            if (dedup_ != nullptr) {
                ++dedupMisses_;
                dedup_->insertUnit(&refs_, k.term, k.hash, results[i]);
            }
            for (auto &unit : memo_[k.term]) {
                if (unit.first == k.hash)
                    unit.second = std::move(results[i]);
            }
        }
    }
}

const sig::LookupResult &
StreamVerifier::resolve(Addr term, u32 digest)
{
    static const sig::LookupResult kEmpty;
    const u32 key = hdr_.mode == ValidationMode::CfiOnly ? 0 : digest;
    auto &units = memo_[term];
    for (const auto &unit : units) {
        if (unit.first == key)
            return unit.second;
    }
    const std::size_t shard = refs_.shardFor(term);
    if (shard == kNoShard)
        return kEmpty;
    if (dedup_ != nullptr) {
        sig::LookupResult cached;
        if (dedup_->lookupUnit(&refs_, term, key, &cached)) {
            ++dedupHits_;
            units.emplace_back(key, std::move(cached));
            return units.back().second;
        }
    }
    units.emplace_back(key, hdr_.mode == ValidationMode::CfiOnly
                                ? refs_.lookupSite(shard, term)
                                : refs_.lookup(shard, term, key));
    if (dedup_ != nullptr) {
        ++dedupMisses_;
        dedup_->insertUnit(&refs_, term, key, units.back().second);
    }
    return units.back().second;
}

void
StreamVerifier::handleEvent(const MeasurementEvent &ev)
{
    // A spill the prover owed us must be the very next record; inline
    // measurement drains the buffer within the same validateBB() call.
    if (spillPending_ && ev.kind != EventKind::SpillMark) {
        transportFail(verdict::reasonMissingSpill());
        return;
    }
    switch (ev.kind) {
    case EventKind::Block:
        ++verdict_.blocksSeen;
        if (verdict_.detected)
            return; // verdict latched; the inline run had already stopped
        if (hdr_.backend == Backend::Rev)
            handleBlockRev(ev);
        else
            handleBlockLoFat(ev);
        break;
    case EventKind::Syscall:
        verdict::applyService(ev.service, enabled_);
        break;
    case EventKind::SpillMark:
        handleSpillMark(ev);
        break;
    case EventKind::End:
        handleEnd(ev);
        break;
    }
}

void
StreamVerifier::handleBlockRev(const MeasurementEvent &ev)
{
    // Nothing to adjudicate while the trusted service suspended
    // validation, or for a block the mode does not check.
    if (!enabled_ || !revRule_.checksBlock(ev.termClass))
        return;

    const sig::LookupResult &ref = resolve(ev.term, ev.codeDigest);
    const verdict::Finding finding = revRule_.check(
        {ev.term, ev.end, ev.termClass, ev.target, ev.codeDigest},
        {ref.found, ref.termSeen, ref.hash, ref.targets, ref.retPreds},
        returns_);
    if (!finding.passed()) {
        violation(ev, finding);
        return;
    }
    ++verdict_.bbValidated;
}

void
StreamVerifier::handleBlockLoFat(const MeasurementEvent &ev)
{
    if (!enabled_)
        return;

    const std::size_t shard = refs_.shardFor(ev.term);
    const verdict::Finding finding = verdict::checkLoFatEdge(
        shard == kNoShard ? nullptr : refs_.moduleSig(shard).cfg.get(),
        ev.term, ev.target);
    if (!finding.passed()) {
        if (finding.kind == verdict::Finding::Kind::Unattested)
            ++verdict_.unattestedBlocks;
        else
            ++verdict_.edgeViolations;
        violation(ev, finding);
        return;
    }

    foldChain(ev);
    ++verdict_.chainUpdates;
    if (++bufferUsed_ >= hdr_.bufferEntries) {
        const u64 bytes = u64(bufferUsed_) * hdr_.entryBytes;
        ++verdict_.bufferSpills;
        verdict_.spillBytes += bytes;
        bufferUsed_ = 0;
        spillPending_ = true;
        expectedSpillBytes_ = bytes;
    }

    ++verdict_.bbValidated;
}

void
StreamVerifier::foldChain(const MeasurementEvent &ev)
{
    // Cross-session dedup: the fold is a pure function of
    // (chain, block, rounds), so sessions attesting the same execution
    // share every link and a hit replaces the CubeHash with a cache
    // read — bit-identical by construction.
    UnitLookupCache::FoldKey key;
    if (dedup_ != nullptr) {
        key = {ev.start, ev.term, ev.target, ev.codeDigest,
               hdr_.hashRounds};
        crypto::Digest next;
        if (dedup_->lookupFold(chain_, key, &next)) {
            ++dedupHits_;
            chain_ = next;
            return;
        }
    }
    const crypto::Digest prev = chain_;
    chain_ = verdict::foldChain(chain_, ev.start, ev.term, ev.target,
                                ev.codeDigest, hdr_.hashRounds);
    if (dedup_ != nullptr) {
        ++dedupMisses_;
        dedup_->insertFold(prev, key, chain_);
    }
}

void
StreamVerifier::handleSpillMark(const MeasurementEvent &ev)
{
    if (!spillPending_) {
        transportFail(verdict::reasonUnexpectedSpill());
        return;
    }
    spillPending_ = false;
    if (ev.spillBytes != expectedSpillBytes_)
        transportFail(verdict::reasonSpillSizeMismatch(ev.spillBytes,
                                                       expectedSpillBytes_));
}

void
StreamVerifier::handleEnd(const MeasurementEvent &ev)
{
    if (!verdict_.detected) {
        if (ev.blockCount != verdict_.blocksSeen) {
            transportFail(verdict::reasonBlockCountMismatch(
                ev.blockCount, verdict_.blocksSeen));
            return;
        }
        if (hdr_.backend == Backend::LoFat) {
            if (!ev.hasChain) {
                transportFail(verdict::reasonMalformedStream());
                return;
            }
            if (ev.chain != chain_) {
                transportFail(verdict::reasonChainDivergence());
                return;
            }
        }
    }
    verdict_.complete = true;
}

void
StreamVerifier::violation(const MeasurementEvent &ev,
                          const verdict::Finding &finding)
{
    ++verdict_.violations;
    if (!verdict_.detected) {
        verdict_.detected = true;
        verdict_.reason =
            finding.reason() + verdict::bbSuffix(ev.start, ev.term);
    }
}

void
StreamVerifier::transportFail(const std::string &reason)
{
    if (!verdict_.detected) {
        verdict_.detected = true;
        verdict_.reason = reason;
    }
    verdict_.complete = true;
}

} // namespace rev::validate
