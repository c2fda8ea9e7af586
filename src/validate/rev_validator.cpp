#include "validate/rev_validator.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "validate/registry.hpp"
#include "validate/verdict.hpp"

namespace rev::validate
{

using sig::ValidationMode;
using verdict::hex;

namespace
{

bool
contains(const std::vector<Addr> &v, Addr a)
{
    return std::find(v.begin(), v.end(), a) != v.end();
}

} // namespace

RevValidator::RevValidator(const sig::SigStore &store,
                           const crypto::KeyVault &vault,
                           const SparseMemory &mem,
                           mem::MemorySystem &memsys, const RevConfig &cfg,
                           unsigned core_id)
    : store_(store), vault_(vault), mem_(mem), memsys_(memsys),
      coreId_(core_id), cfg_(cfg), sc_(cfg.sc), sag_(cfg.sagEntries),
      chg_(mem, cfg.chg), rule_(store.mode(), cfg.returnValidation),
      enabled_(cfg.startEnabled)
{
    // The trusted linker pre-loads the SAG for statically linked modules
    // (Sec. IV.B); modules beyond the SAG capacity fault in at run time.
    preloadSag();
}

RevValidator::RevValidator(const RevValidator &source,
                           const BackendContext &ctx)
    : store_(*ctx.store), vault_(*ctx.vault), mem_(*ctx.mem),
      memsys_(*ctx.memsys), coreId_(ctx.coreId), cfg_(source.cfg_),
      sc_(source.sc_), sag_(source.sag_), chg_(source.chg_, *ctx.mem),
      rule_(source.rule_), enabled_(source.enabled_), ring_(source.ring_),
      returns_(source.returns_), shadowSpilled_(source.shadowSpilled_),
      shadowPenaltyAt_(source.shadowPenaltyAt_),
      lastViolation_(source.lastViolation_), stats_(source.stats_),
      offenders_(source.offenders_)
{
    // Table readers are re-bound clones of the source's header caches,
    // not re-parsed: a tamper landing before the pause may have corrupted
    // the header bytes in memory, and a cold run's reader — created at
    // first use — still holds the pre-tamper parse.
    for (const auto &[base, reader] : source.readers_)
        readers_.emplace_back(
            base, std::make_unique<sig::TableReader>(*reader, mem_));
}

std::unique_ptr<Validator>
RevValidator::fork(const BackendContext &ctx) const
{
    return std::unique_ptr<Validator>(new RevValidator(*this, ctx));
}

void
RevValidator::preloadSag()
{
    unsigned installed = 0;
    for (const auto &ms : store_.moduleSigs()) {
        if (installed >= sag_.capacity())
            break;
        sag_.install(ms.module->base, ms.module->codeEnd(), ms.tableBase);
        ++installed;
    }
}

const sig::TableReader &
RevValidator::readerFor(Addr table_base)
{
    for (const auto &[base, reader] : readers_) {
        if (base == table_base)
            return *reader;
    }
    readers_.emplace_back(table_base, std::make_unique<sig::TableReader>(
                                          mem_, table_base, vault_));
    const sig::TableReader &reader = *readers_.back().second;
    if (!reader.valid())
        warn("REV: signature table at ", hex(table_base),
             " failed authentication");
    return reader;
}

sig::LookupResult
RevValidator::walk(const SagEntry &sag_entry, Addr term, u32 key,
                   Cycle from, Cycle &ready_at, const sig::WalkNeeds &needs)
{
    const sig::TableReader &reader = readerFor(sag_entry.tableBase);
    sig::LookupResult res;
    if (reader.valid()) {
        res = reader.mode() == ValidationMode::CfiOnly
                  ? reader.lookupSite(term, sag_entry.moduleBase, &needs)
                  : reader.lookup(term, key, sag_entry.moduleBase, &needs);
    }
    Cycle t = from;
    for (Addr a : res.memAddrs)
        t = memsys_.access(a, mem::AccessType::ScFill, t, coreId_)
                .completeAt;
    stats_.tableWalkReads += res.memAddrs.size();
    ready_at = t + cfg_.decryptLatency;
    return res;
}

void
RevValidator::onBBFetched(const BBFetchInfo &info)
{
    PendingBB &cur = slotFor(info.bbSeq);
    cur.reset();
    cur.valid = true;
    cur.info = info;

    if (!enabled_) {
        cur.bypass = true;
        return;
    }

    if (!rule_.checksBlock(info.termClass)) {
        cur.bypass = true;
        return;
    }
    const ValidationMode mode = store_.mode();

    Cycle t = info.fetchDoneAt;

    // --- SAG: which module / table owns this block? -----------------------
    const SagEntry *sag_entry = sag_.match(info.term);
    if (!sag_entry) {
        ++stats_.sagExceptions;
        t += cfg_.sagMissPenalty;
        if (const sig::ModuleSig *ms = store_.findByCode(info.term)) {
            sag_.install(ms->module->base, ms->module->codeEnd(),
                         ms->tableBase);
            sag_entry = sag_.match(info.term);
        }
    }
    if (!sag_entry) {
        // Code outside every registered module: nothing can authenticate it.
        cur.refFound = false;
        cur.scReadyAt = t;
        return;
    }

    // --- CHG ----------------------------------------------------------------
    // The hash unit digests the fetched bytes now (counted here, memoized
    // against the pages' write versions). The value is read again where
    // it is first consumed — by the table walk below on an SC miss, or at
    // validateBB() on an SC hit — which is a memo hit unless a store
    // landed on the block's pages in between.
    if (mode != ValidationMode::CfiOnly) {
        chg_.digest(info.start, info.term, info.end);
        cur.hashPending = true;
        cur.hashReadyAt = chg_.readyAt(info.fetchDoneAt);
    }

    // --- SC probe -------------------------------------------------------------
    const Addr sc_start = mode == ValidationMode::CfiOnly ? info.term
                                                          : info.start;
    ScEntry *entry = sc_.probe(info.term, sc_start);

    const bool need_target = rule_.checksTarget(info.termClass);
    const std::optional<Addr> pred = rule_.predecessorToCheck(returns_);
    const bool need_pred = pred.has_value();

    // Aggressive entries verify up to two successors (Sec. VIII); CFI-only
    // entries are hash-free and small enough to cache two MRU targets in
    // the same SRAM budget.
    const bool two_slots = mode != ValidationMode::Full;
    if (entry) {
        const bool target_ok =
            !need_target ||
            entry->get(ScEntry::kSucc) == info.nextStart ||
            (two_slots && entry->get(ScEntry::kSucc2) == info.nextStart);
        const bool pred_ok = !need_pred || entry->get(ScEntry::kPred) == *pred;
        if (target_ok && pred_ok) {
            // Full hit: validate from the cached entry.
            cur.scHit = true;
            cur.refFound = true;
            cur.refHash = entry->hash;
            if (const auto succ = entry->get(ScEntry::kSucc))
                cur.refTargets.push_back(*succ);
            const auto succ2 = entry->get(ScEntry::kSucc2);
            if (two_slots && succ2)
                cur.refTargets.push_back(*succ2);
            if (const auto pred = entry->get(ScEntry::kPred))
                cur.refPreds.push_back(*pred);
            cur.scReadyAt = t;
            return;
        }
        // Partial miss: the entry lacks the needed successor/predecessor.
        cur.partialMiss = true;
        ++stats_.scPartialMisses;
        sig::WalkNeeds needs;
        if (need_target)
            needs.target = info.nextStart;
        if (need_pred)
            needs.pred = *pred;
        // Partial-miss walks present the entry's reference hash (the SC
        // already authenticated this block's code).
        const sig::LookupResult ref = walk(*sag_entry, info.term,
                                           entry->hash, t, cur.scReadyAt,
                                           needs);
        cur.refFound = ref.found;
        cur.termSeen = ref.termSeen;
        cur.refHash = ref.found ? ref.hash : entry->hash;
        cur.refTargets = ref.targets;
        cur.refPreds = ref.retPreds;
        // MRU update (only legitimate addresses are cached).
        if (ref.found) {
            if (need_target && contains(ref.targets, info.nextStart)) {
                if (two_slots)
                    entry->set(ScEntry::kSucc2, entry->get(ScEntry::kSucc));
                entry->set(ScEntry::kSucc, info.nextStart);
            }
            if (need_pred && contains(ref.retPreds, *pred))
                entry->set(ScEntry::kPred, *pred);
        }
        return;
    }

    // Complete miss: fetch + decrypt the reference entry from RAM.
    ++stats_.scCompleteMisses;
    sig::WalkNeeds needs;
    if (need_target)
        needs.target = info.nextStart;
    if (need_pred)
        needs.pred = *pred;
    // Complete-miss walks present the CHG digest as the discriminator, so
    // the hash must resolve now.
    resolveHash(cur);
    const sig::LookupResult ref = walk(*sag_entry, info.term,
                                       cur.computedHash, t,
                                       cur.scReadyAt, needs);
    cur.refFound = ref.found;
    cur.termSeen = ref.termSeen;
    cur.refHash = ref.hash;
    cur.refTargets = ref.targets;
    cur.refPreds = ref.retPreds;
    if (ref.found) {
        ScEntry &fresh = sc_.insert(info.term, sc_start);
        fresh.hash = ref.hash;
        fresh.kind = ref.termKind;
        if (contains(ref.targets, info.nextStart))
            fresh.set(ScEntry::kSucc, info.nextStart);
        else if (!ref.targets.empty())
            fresh.set(ScEntry::kSucc, ref.targets.front());
        if (two_slots) {
            for (Addr cand : ref.targets) {
                if (fresh.get(ScEntry::kSucc) != cand) {
                    fresh.set(ScEntry::kSucc2, cand);
                    break;
                }
            }
        }
        const std::optional<Addr> &latched = returns_.pendingReturn;
        if (latched && contains(ref.retPreds, *latched))
            fresh.set(ScEntry::kPred, *latched);
        else if (!ref.retPreds.empty())
            fresh.set(ScEntry::kPred, ref.retPreds.front());
    }
}

Cycle
RevValidator::commitReadyAt(BBSeq bb, Cycle earliest)
{
    PendingBB *cur = find(bb);
    if (!cur || cur->bypass)
        return earliest;
    Cycle ready = std::max({earliest, cur->hashReadyAt, cur->scReadyAt});
    if (shadowPenaltyAt_ > ready)
        ready = shadowPenaltyAt_; // shadow-stack spill/refill round trip
    shadowPenaltyAt_ = 0;
    cur->stall = ready - earliest;
    stats_.commitStallCycles += cur->stall;
    return ready;
}

bool
RevValidator::validateBB(BBSeq bb, Addr actual_target, Cycle commit_cycle)
{
    PendingBB *curp = find(bb);
    if (!curp || curp->bypass) {
        if (curp)
            curp->reset();
        return true;
    }
    PendingBB &cur = *curp;
    const BBFetchInfo info = cur.info;

    // SC-hit blocks read their digest here, before the measurement
    // record and the hash compare below consume it.
    resolveHash(cur);

    // Prover-side measurement: report the block before adjudicating it —
    // real measurement hardware records what executed, including the
    // block a verdict will reject.
    source_.emitBlock(info, actual_target, cur.computedHash);

    auto emit_trace = [&](bool passed, const std::string &reason) {
        if (!trace_)
            return;
        ValidationEvent ev;
        ev.bbSeq = info.bbSeq;
        ev.start = info.start;
        ev.term = info.term;
        ev.commitCycle = commit_cycle;
        ev.hash = cur.computedHash;
        ev.scHit = cur.scHit;
        ev.partialMiss = cur.partialMiss;
        ev.stallCycles = cur.stall;
        ev.passed = passed;
        ev.reason = reason;
        trace_(ev);
    };

    const std::size_t depth_before = returns_.shadowStack.size();
    const verdict::Finding finding = rule_.check(
        {info.term, info.end, info.termClass, actual_target,
         cur.computedHash},
        {cur.refFound, cur.termSeen, cur.refHash, cur.refTargets,
         cur.refPreds},
        returns_);
    chargeShadowTraffic(depth_before, commit_cycle);
    if (!finding.passed()) {
        ++stats_.violations;
        lastViolation_ =
            finding.reason() + verdict::bbSuffix(info.start, info.term);
        // Keep the offender's signature for later recognition
        // (paper, Sec. X).
        offenders_.push_back({info.start, info.term, cur.computedHash,
                              lastViolation_});
        emit_trace(false, lastViolation_);
        cur.reset();
        return false;
    }

    ++stats_.bbValidated;
    emit_trace(true, "");
    cur.reset();
    return true;
}

void
RevValidator::chargeShadowTraffic(std::size_t depth_before,
                                  Cycle commit_cycle)
{
    const std::size_t depth = returns_.shadowStack.size();
    if (depth > depth_before) {
        if (depth - shadowSpilled_ > cfg_.shadowStackEntries) {
            // On-chip stack full: spill the older half to memory.
            shadowSpilled_ += cfg_.shadowStackEntries / 2;
            ++stats_.shadowSpills;
            shadowPenaltyAt_ = commit_cycle + cfg_.shadowSpillPenalty;
        }
    } else if (depth < depth_before && depth_before == shadowSpilled_ &&
               shadowSpilled_ > 0) {
        // The pop found the on-chip stack empty: refill a batch first.
        shadowSpilled_ -=
            std::min<u64>(shadowSpilled_, cfg_.shadowStackEntries / 2);
        ++stats_.shadowRefills;
        shadowPenaltyAt_ = commit_cycle + cfg_.shadowSpillPenalty;
    }
}

void
RevValidator::onMispredictResolved(Cycle resolve_cycle)
{
    (void)resolve_cycle;
    if (enabled_)
        chg_.flush();
}

void
RevValidator::refreshTables()
{
    readers_.clear();
    sc_.invalidateAll();
    chg_.invalidate();
    sag_.reset();
    preloadSag();
}

RevValidator::ThreadState
RevValidator::saveThreadState() const
{
    return ThreadState{returns_, shadowSpilled_};
}

void
RevValidator::restoreThreadState(const ThreadState &state)
{
    returns_ = state;
    shadowSpilled_ = state.shadowSpilled;
}

void
RevValidator::onInterrupt(Cycle cycle)
{
    (void)cycle;
    // The current block has already validated; the refetched stream
    // restarts the CHG, and any wrong-path SC prefetches are dropped.
    if (enabled_)
        chg_.flush();
}

void
RevValidator::onSyscall(u8 service, Cycle commit_cycle)
{
    (void)commit_cycle;
    // Sec. VII: one protected system call disables REV (for trusted
    // self-modifying code), another re-enables it.
    if (verdict::applyService(service, enabled_))
        source_.emitSyscall(service);
}

void
RevValidator::attachMeasurementSink(MeasurementSink *sink)
{
    StreamHeader h;
    h.backend = Backend::Rev;
    h.mode = store_.mode();
    h.returnValidation = static_cast<u8>(cfg_.returnValidation);
    h.hashRounds = cfg_.chg.hashRounds;
    h.shadowStackEntries = cfg_.shadowStackEntries;
    h.startEnabled = enabled_;
    source_.attach(sink, h);
}

void
RevValidator::addStats(stats::StatGroup &group) const
{
    sc_.addStats(group);
    sag_.addStats(group);
    chg_.addStats(group);
}

void
RevValidator::snapshotStats(stats::StatSet &set,
                            const std::string &prefix) const
{
    set.add(prefix + ".rev.bb_validated", stats_.bbValidated);
    set.add(prefix + ".rev.sc_complete_misses", stats_.scCompleteMisses);
    set.add(prefix + ".rev.sc_partial_misses", stats_.scPartialMisses);
    set.add(prefix + ".rev.table_walk_reads", stats_.tableWalkReads);
    set.add(prefix + ".rev.violations", stats_.violations);
    set.add(prefix + ".rev.sag_exceptions", stats_.sagExceptions);
    set.add(prefix + ".rev.commit_stall_cycles", stats_.commitStallCycles);
    set.add(prefix + ".rev.shadow_spills", stats_.shadowSpills);
    set.add(prefix + ".rev.shadow_refills", stats_.shadowRefills);
}

} // namespace rev::validate
