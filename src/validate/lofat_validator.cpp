#include "validate/lofat_validator.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/logging.hpp"
#include "validate/verdict.hpp"

namespace rev::validate
{

using isa::InstrClass;
using prog::TermKind;

LoFatValidator::LoFatValidator(const sig::SigStore &store,
                               const SparseMemory &mem,
                               mem::MemorySystem &memsys,
                               const LoFatConfig &cfg, unsigned core_id)
    : store_(store), memsys_(memsys), coreId_(core_id), cfg_(cfg),
      chg_(mem, cfg.chg), enabled_(cfg.startEnabled)
{
}

void
LoFatValidator::onBBFetched(const BBFetchInfo &info)
{
    cur_ = PendingBB{};
    cur_.valid = true;
    cur_.info = info;
    if (!enabled_) {
        cur_.bypass = true;
        return;
    }
    // The CHG digests the fetched bytes; the digest is both the chain's
    // code component and the earliest the event record can be sealed. It
    // is read again at validateBB (a memo hit unless a store landed on
    // the block's pages in between).
    chg_.digest(info.start, info.term, info.end);
    cur_.hashPending = true;
    cur_.hashReadyAt = chg_.readyAt(info.fetchDoneAt);
}

Cycle
LoFatValidator::commitReadyAt(BBSeq bb, Cycle earliest)
{
    if (!cur_.valid || cur_.info.bbSeq != bb || cur_.bypass)
        return earliest;
    Cycle ready = std::max(earliest, cur_.hashReadyAt);
    // A still-draining measurement buffer backpressures commit: the next
    // record needs a free slot.
    if (bufferUsed_ >= cfg_.bufferEntries && drainReadyAt_ > ready)
        ready = drainReadyAt_;
    stats_.commitStallCycles += ready - earliest;
    return ready;
}

bool
LoFatValidator::fail(const BBFetchInfo &info, const std::string &reason)
{
    ++stats_.violations;
    lastViolation_ = reason + verdict::bbSuffix(info.start, info.term);
    cur_ = PendingBB{};
    return false;
}

bool
LoFatValidator::validateBB(BBSeq bb, Addr actual_target, Cycle commit_cycle)
{
    if (!cur_.valid || cur_.info.bbSeq != bb || cur_.bypass) {
        cur_ = PendingBB{};
        return true;
    }
    const BBFetchInfo info = cur_.info;

    // Read the fetch-time digest (current bytes if a store landed on the
    // block since fetch) before the measurement record and the chain fold
    // consume it.
    if (cur_.hashPending) {
        cur_.codeDigest = chg_.digest(info.start, info.term, info.end);
        cur_.hashPending = false;
    }

    // Prover-side measurement: the block is recorded before the (eager,
    // model-side) CFG check adjudicates it.
    source_.emitBlock(info, actual_target, cur_.codeDigest);

    // --- eager verifier: the event must exist in the attested CFG ---------
    const sig::ModuleSig *ms = store_.findByCode(info.term);
    if (!ms) {
        ++stats_.unattestedBlocks;
        return fail(info, verdict::reasonUnattested(info.term));
    }
    const prog::Cfg &cfg = *ms->cfg;
    const std::span<const u32> ids = cfg.blocksAtTerm(info.term);
    if (ids.empty()) {
        ++stats_.unattestedBlocks;
        return fail(info, verdict::reasonUnattested(info.term));
    }

    // Edge check: the taken edge must appear in some attested block with
    // this terminator (Return succs are the statically derived return-site
    // set; Split succs the fall-through; Halt has no successor).
    bool edge_ok = false;
    bool any_successor = false;
    bool is_return = false;
    for (u32 id : ids) {
        const prog::BasicBlock &b = cfg.blocks()[id];
        if (b.kind == TermKind::Halt) {
            edge_ok = true;
            continue;
        }
        any_successor = true;
        if (b.kind == TermKind::Return)
            is_return = true;
        const std::span<const Addr> succs = cfg.succs(b);
        if (std::find(succs.begin(), succs.end(), actual_target) !=
            succs.end())
            edge_ok = true;
    }
    if (!edge_ok && any_successor) {
        ++stats_.edgeViolations;
        if (is_return)
            return fail(info, verdict::reasonBadReturnSite(actual_target));
        return fail(info, verdict::reasonIllegalEdge(actual_target));
    }

    fold(info, actual_target);
    if (++bufferUsed_ >= cfg_.bufferEntries)
        spill(commit_cycle);

    ++stats_.bbValidated;
    cur_ = PendingBB{};
    return true;
}

void
LoFatValidator::fold(const BBFetchInfo &info, Addr actual_target)
{
    // chain' = H(chain || start || term || target || code digest)
    u8 buf[sizeof(crypto::Digest) + 3 * sizeof(Addr) + sizeof(u32)];
    std::size_t off = 0;
    std::memcpy(buf + off, chain_.data(), chain_.size());
    off += chain_.size();
    std::memcpy(buf + off, &info.start, sizeof(Addr));
    off += sizeof(Addr);
    std::memcpy(buf + off, &info.term, sizeof(Addr));
    off += sizeof(Addr);
    std::memcpy(buf + off, &actual_target, sizeof(Addr));
    off += sizeof(Addr);
    std::memcpy(buf + off, &cur_.codeDigest, sizeof(u32));
    off += sizeof(u32);
    chain_ = crypto::CubeHash::hash(buf, off, cfg_.chg.hashRounds);
    ++stats_.chainUpdates;
}

void
LoFatValidator::spill(Cycle from)
{
    // Drain the staged records to the measurement region, one line-sized
    // write per group of records, through the validation-traffic port.
    const u64 bytes = u64(bufferUsed_) * cfg_.entryBytes;
    Cycle t = from;
    for (u64 done = 0; done < bytes; done += 64) {
        t = memsys_.access(spillCursor_, mem::AccessType::ScFill, t, coreId_)
                .completeAt;
        spillCursor_ += 64;
        // Wrap within a bounded window; the verifier consumes records
        // faster than one window fills.
        if (spillCursor_ >= kMeasurementRegion + 0x10000)
            spillCursor_ = kMeasurementRegion;
    }
    drainReadyAt_ = t;
    ++stats_.bufferSpills;
    stats_.spillBytes += bytes;
    bufferUsed_ = 0;
    source_.emitSpill(bytes);
}

void
LoFatValidator::onMispredictResolved(Cycle resolve_cycle)
{
    (void)resolve_cycle;
    if (enabled_)
        chg_.flush();
}

void
LoFatValidator::onInterrupt(Cycle cycle)
{
    (void)cycle;
    if (enabled_)
        chg_.flush();
}

void
LoFatValidator::onSyscall(u8 service, Cycle commit_cycle)
{
    (void)commit_cycle;
    // Same trusted services as REV (Sec. VII): 1 suspends measurement,
    // 2 resumes it.
    if (service == 1)
        enabled_ = false;
    else if (service == 2)
        enabled_ = true;
    if (service == 1 || service == 2)
        source_.emitSyscall(service);
}

void
LoFatValidator::attachMeasurementSink(MeasurementSink *sink)
{
    StreamHeader h;
    h.backend = Backend::LoFat;
    h.mode = store_.mode();
    h.hashRounds = cfg_.chg.hashRounds;
    h.bufferEntries = cfg_.bufferEntries;
    h.entryBytes = cfg_.entryBytes;
    h.startEnabled = enabled_;
    source_.attach(sink, h);
}

void
LoFatValidator::addStats(stats::StatGroup &group) const
{
    chg_.addStats(group);
}

void
LoFatValidator::snapshotStats(stats::StatSet &set,
                              const std::string &prefix) const
{
    set.add(prefix + ".lofat.bb_validated", stats_.bbValidated);
    set.add(prefix + ".lofat.violations", stats_.violations);
    set.add(prefix + ".lofat.commit_stall_cycles", stats_.commitStallCycles);
    set.add(prefix + ".lofat.chain_updates", stats_.chainUpdates);
    set.add(prefix + ".lofat.buffer_spills", stats_.bufferSpills);
    set.add(prefix + ".lofat.spill_bytes", stats_.spillBytes);
    set.add(prefix + ".lofat.unattested_blocks", stats_.unattestedBlocks);
    set.add(prefix + ".lofat.edge_violations", stats_.edgeViolations);
}

/** Everything LoFatValidator mutates between construction and a pause:
 *  the running hash chain, measurement-buffer occupancy and spill cursor,
 *  the in-flight block, the CHG state, and the counters. */
struct LoFatValidator::Snapshot final : ValidatorSnapshot
{
    Chg::State chg;
    bool enabled = true;
    PendingBB cur;
    crypto::Digest chain{};
    unsigned bufferUsed = 0;
    Addr spillCursor = kMeasurementRegion;
    Cycle drainReadyAt = 0;
    std::string lastViolation;
    LoFatStats stats;
};

std::unique_ptr<ValidatorSnapshot>
LoFatValidator::saveSnapshot() const
{
    auto snap = std::make_unique<Snapshot>();
    snap->chg = chg_.saveState();
    snap->enabled = enabled_;
    snap->cur = cur_;
    snap->chain = chain_;
    snap->bufferUsed = bufferUsed_;
    snap->spillCursor = spillCursor_;
    snap->drainReadyAt = drainReadyAt_;
    snap->lastViolation = lastViolation_;
    snap->stats = stats_;
    return snap;
}

void
LoFatValidator::restoreSnapshot(const ValidatorSnapshot &snap)
{
    const auto *s = dynamic_cast<const Snapshot *>(&snap);
    REV_ASSERT(s, "snapshot restored into a different backend");
    chg_.restoreState(s->chg);
    enabled_ = s->enabled;
    cur_ = s->cur;
    chain_ = s->chain;
    bufferUsed_ = s->bufferUsed;
    spillCursor_ = s->spillCursor;
    drainReadyAt_ = s->drainReadyAt;
    lastViolation_ = s->lastViolation;
    stats_ = s->stats;
}

} // namespace rev::validate
