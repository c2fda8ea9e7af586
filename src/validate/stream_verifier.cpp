#include "validate/stream_verifier.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "validate/rev_validator.hpp"
#include "validate/verdict.hpp"

namespace rev::validate
{

using isa::InstrClass;
using prog::TermKind;
using sig::ValidationMode;

namespace
{

/** Discard the consumed prefix once it exceeds this. */
constexpr std::size_t kCompactThreshold = 64 * 1024;

bool
contains(std::span<const Addr> v, Addr a)
{
    return std::find(v.begin(), v.end(), a) != v.end();
}

bool
isComputedClass(InstrClass c)
{
    return c == InstrClass::CallIndirect || c == InstrClass::JumpIndirect;
}

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
        if (ev.service == 1)
            enabled_ = false;
        else if (ev.service == 2)
            enabled_ = true;
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
    const ValidationMode mode = hdr_.mode;

    // Mirror the inline bypass rules: nothing to adjudicate while the
    // trusted service suspended validation, and CFI-only checks computed
    // transfers and returns exclusively (Sec. V.D).
    if (!enabled_)
        return;
    if (mode == ValidationMode::CfiOnly &&
        !isComputedClass(ev.termClass) &&
        ev.termClass != InstrClass::Return)
        return;

    const sig::LookupResult &ref = resolve(ev.term, ev.codeDigest);
    if (!ref.found) {
        violation(ev, ref.termSeen ? verdict::reasonHashMismatch()
                                   : verdict::reasonNoReference());
        return;
    }

    const bool delayed_pred =
        hdr_.returnValidation ==
        static_cast<u8>(ReturnValidation::DelayedPredecessor);

    if (mode != ValidationMode::CfiOnly && delayed_pred && pendingReturn_) {
        if (!contains(ref.retPreds, *pendingReturn_)) {
            violation(ev, verdict::reasonBadReturn(*pendingReturn_));
            return;
        }
        pendingReturn_.reset();
    }

    bool check_target = isComputedClass(ev.termClass);
    if (mode == ValidationMode::CfiOnly)
        check_target = true;
    else if (mode == ValidationMode::Aggressive &&
             ev.termClass != InstrClass::Return &&
             ev.termClass != InstrClass::Halt)
        check_target = true;
    if (check_target && !contains(ref.targets, ev.target)) {
        violation(ev, verdict::reasonIllegalTransfer(ev.target));
        return;
    }

    if (mode != ValidationMode::CfiOnly && delayed_pred) {
        if (ev.termClass == InstrClass::Return)
            pendingReturn_ = ev.term;
    } else if (mode != ValidationMode::CfiOnly) {
        if (ev.termClass == InstrClass::Call ||
            ev.termClass == InstrClass::CallIndirect) {
            shadowStack_.push_back(ev.end);
        } else if (ev.termClass == InstrClass::Return) {
            if (shadowStack_.empty()) {
                violation(ev, verdict::reasonShadowUnderflow());
                return;
            }
            const Addr expected = shadowStack_.back();
            shadowStack_.pop_back();
            if (ev.target != expected) {
                violation(ev, verdict::reasonShadowMismatch(ev.target,
                                                            expected));
                return;
            }
        }
    }

    ++verdict_.bbValidated;
}

void
StreamVerifier::handleBlockLoFat(const MeasurementEvent &ev)
{
    if (!enabled_)
        return;

    const std::size_t shard = refs_.shardFor(ev.term);
    const prog::Cfg *cfg =
        shard == kNoShard ? nullptr : refs_.moduleSig(shard).cfg.get();
    const std::span<const u32> ids =
        cfg ? cfg->blocksAtTerm(ev.term) : std::span<const u32>{};
    if (ids.empty()) {
        ++verdict_.unattestedBlocks;
        violation(ev, verdict::reasonUnattested(ev.term));
        return;
    }

    bool edge_ok = false;
    bool any_successor = false;
    bool is_return = false;
    for (u32 id : ids) {
        const prog::BasicBlock &b = cfg->blocks()[id];
        if (b.kind == TermKind::Halt) {
            edge_ok = true;
            continue;
        }
        any_successor = true;
        if (b.kind == TermKind::Return)
            is_return = true;
        if (contains(cfg->succs(b), ev.target))
            edge_ok = true;
    }
    if (!edge_ok && any_successor) {
        ++verdict_.edgeViolations;
        violation(ev, is_return
                          ? verdict::reasonBadReturnSite(ev.target)
                          : verdict::reasonIllegalEdge(ev.target));
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
    // Byte-for-byte the fold of LoFatValidator::fold():
    // chain' = H(chain || start || term || target || code digest)
    u8 buf[sizeof(crypto::Digest) + 3 * sizeof(Addr) + sizeof(u32)];
    std::size_t off = 0;
    std::memcpy(buf + off, chain_.data(), chain_.size());
    off += chain_.size();
    std::memcpy(buf + off, &ev.start, sizeof(Addr));
    off += sizeof(Addr);
    std::memcpy(buf + off, &ev.term, sizeof(Addr));
    off += sizeof(Addr);
    std::memcpy(buf + off, &ev.target, sizeof(Addr));
    off += sizeof(Addr);
    std::memcpy(buf + off, &ev.codeDigest, sizeof(u32));
    off += sizeof(u32);
    const crypto::Digest prev = chain_;
    chain_ = crypto::CubeHash::hash(buf, off, hdr_.hashRounds);
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
                          const std::string &reason)
{
    ++verdict_.violations;
    if (!verdict_.detected) {
        verdict_.detected = true;
        verdict_.reason = reason + verdict::bbSuffix(ev.start, ev.term);
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
