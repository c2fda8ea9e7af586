#include "validate/lofat_validator.hpp"

#include <algorithm>

#include "validate/verdict.hpp"

namespace rev::validate
{

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

    std::unique_ptr<ValidatorSnapshot>
    clone() const override
    {
        return std::make_unique<Snapshot>(*this);
    }
};

LoFatValidator::LoFatValidator(const sig::SigStore &store,
                               const SparseMemory &mem,
                               mem::MemorySystem &memsys,
                               const LoFatConfig &cfg, unsigned core_id,
                               ValidatorSnapshot *from)
    : store_(store), memsys_(memsys), coreId_(core_id), cfg_(cfg),
      chg_(from ? Chg(mem, cfg.chg,
                      std::move(snapshotAs<Snapshot>(from)->chg))
                : Chg(mem, cfg.chg)),
      enabled_(cfg.startEnabled)
{
    Snapshot *s = snapshotAs<Snapshot>(from);
    if (!s)
        return;
    enabled_ = s->enabled;
    cur_ = s->cur;
    chain_ = s->chain;
    bufferUsed_ = s->bufferUsed;
    spillCursor_ = s->spillCursor;
    drainReadyAt_ = s->drainReadyAt;
    lastViolation_ = std::move(s->lastViolation);
    stats_ = s->stats;
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
    const verdict::Finding finding = verdict::checkLoFatEdge(
        ms ? ms->cfg.get() : nullptr, info.term, actual_target);
    if (!finding.passed()) {
        if (finding.kind == verdict::Finding::Kind::Unattested)
            ++stats_.unattestedBlocks;
        else
            ++stats_.edgeViolations;
        ++stats_.violations;
        lastViolation_ =
            finding.reason() + verdict::bbSuffix(info.start, info.term);
        cur_ = PendingBB{};
        return false;
    }

    chain_ = verdict::foldChain(chain_, info.start, info.term, actual_target,
                                cur_.codeDigest, cfg_.chg.hashRounds);
    ++stats_.chainUpdates;
    if (++bufferUsed_ >= cfg_.bufferEntries)
        spill(commit_cycle);

    ++stats_.bbValidated;
    cur_ = PendingBB{};
    return true;
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
    // Same trusted services as REV (Sec. VII): suspend and resume
    // measurement.
    if (verdict::applyService(service, enabled_))
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

} // namespace rev::validate
