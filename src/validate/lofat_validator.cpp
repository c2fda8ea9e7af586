#include "validate/lofat_validator.hpp"

#include <algorithm>

#include "validate/registry.hpp"
#include "validate/verdict.hpp"

namespace rev::validate
{

LoFatValidator::LoFatValidator(const sig::SigStore &store,
                               const SparseMemory &mem,
                               mem::MemorySystem &memsys,
                               const LoFatConfig &cfg, unsigned core_id)
    : store_(store), memsys_(memsys), coreId_(core_id), cfg_(cfg),
      chg_(mem, cfg.chg), enabled_(cfg.startEnabled)
{
}

LoFatValidator::LoFatValidator(const LoFatValidator &source,
                               const BackendContext &ctx)
    : store_(*ctx.store), memsys_(*ctx.memsys), coreId_(ctx.coreId),
      cfg_(source.cfg_), chg_(source.chg_, *ctx.mem),
      enabled_(source.enabled_), cur_(source.cur_), chain_(source.chain_),
      bufferUsed_(source.bufferUsed_), spillCursor_(source.spillCursor_),
      drainReadyAt_(source.drainReadyAt_),
      lastViolation_(source.lastViolation_), stats_(source.stats_)
{
}

std::unique_ptr<Validator>
LoFatValidator::fork(const BackendContext &ctx) const
{
    return std::unique_ptr<Validator>(new LoFatValidator(*this, ctx));
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

} // namespace rev::validate
