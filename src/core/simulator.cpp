#include "core/simulator.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace rev::core
{

using validate::Backend;

Simulator::Simulator(const prog::Program &program, const SimConfig &cfg)
    : program_(program), cfg_(cfg),
      memsys_(cfg.mem, cfg.numCores ? cfg.numCores : 1), vault_(cfg.cpuSeed)
{
    REV_ASSERT(cfg_.numCores >= 1, "SimConfig::numCores must be >= 1");
    REV_ASSERT(cfg_.numCores == 1 || cfg_.schedQuantumInstrs > 0,
               "multicore scheduling requires a nonzero quantum");

    slots_.push_back(std::make_unique<CoreSlot>());
    CoreSlot &s0 = slot0();
    if (cfg_.memoryImage)
        s0.mem = cfg_.memoryImage->fork();
    else
        program_.loadInto(s0.mem);

    const validate::BackendInfo *info =
        validate::ValidatorRegistry::instance().find(cfg_.backend);
    REV_ASSERT(info, "unregistered validation backend");

    REV_ASSERT(!cfg_.memoryImage || !info->needsTables ||
                   cfg_.sigStorePrototype,
               "memoryImage with a table-backed validator requires the "
               "matching sigStorePrototype (the image already holds its "
               "loaded tables)");
    if (info->needsTables) {
        // CFI-only SC entries hold no hash and no predecessor (Sec. V.D):
        // the same SRAM budget holds twice as many entries.
        if (cfg_.backend == Backend::Rev &&
            cfg_.mode == sig::ValidationMode::CfiOnly &&
            cfg_.rev.sc.entryBytes == validate::ScConfig{}.entryBytes) {
            cfg_.rev.sc.entryBytes = 8;
        }
        if (cfg_.sigStorePrototype) {
            const sig::SigStore &proto = *cfg_.sigStorePrototype;
            REV_ASSERT(proto.mode() == cfg_.mode &&
                           proto.hashRounds() == cfg_.rev.chg.hashRounds,
                       "sigStorePrototype was built with different "
                       "validation parameters");
            store_.emplace(proto); // shares the prototype's build
        } else {
            // Split limits of the toolchain and the front end must agree.
            store_.emplace(program_, cfg_.mode, vault_, cfg_.toolchainSeed,
                           cfg_.core.splitLimits, cfg_.rev.chg.hashRounds);
        }
        // A pre-loaded image already holds the tables this store built.
        if (!cfg_.memoryImage)
            store_->loadInto(s0.mem);
    }

    // Secondary cores run their own COW fork of the post-load image
    // (program + tables): architectural execution is private per core,
    // contention happens in the shared timing hierarchy.
    for (unsigned c = 1; c < cfg_.numCores; ++c) {
        slots_.push_back(std::make_unique<CoreSlot>());
        slots_.back()->mem = s0.mem.fork();
    }
    // hartid words go in after the forks so each core reads its own id.
    if (cfg_.coreIdAddr)
        for (unsigned c = 0; c < cfg_.numCores; ++c)
            slots_[c]->mem.write64(cfg_.coreIdAddr, c);

    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        CoreSlot &s = *slots_[c];
        createValidator(s, c);
        if (c == 0 && cfg_.measurementSink)
            s.validator->attachMeasurementSink(cfg_.measurementSink);
        s.core = std::make_unique<cpu::Core>(program_, s.mem, memsys_,
                                             cfg_.core, s.validator.get(), c);
        if (cfg_.pageShadowing)
            s.pristine = s.mem.clone();
    }

    REV_ASSERT(!(cfg_.traceRecorder && cfg_.replayTrace),
               "cannot record and replay a trace in the same run");
    if (cfg_.traceRecorder) {
        cfg_.traceRecorder->begin(program_.entry(), cfg_.core.maxInstrs,
                                  cfg_.core.splitLimits, s0.mem.epoch());
        s0.core->machine().attachRecorder(cfg_.traceRecorder);
    }
    if (cfg_.replayTrace) {
        for (unsigned c = 0; c < slots_.size(); ++c) {
            CoreSlot &s = *slots_[c];
            // A trace records core 0's architectural stream. With a
            // hartid word set, the other cores legitimately diverge from
            // it, so only core 0 may replay.
            if (c > 0 && cfg_.coreIdAddr)
                continue;
            if (!traceAttachable(*cfg_.replayTrace, s.mem))
                continue;
            s.replayer =
                std::make_unique<prog::TraceReplayer>(*cfg_.replayTrace);
            s.core->machine().attachReplayer(s.replayer.get());
        }
    }
}

Simulator::Simulator(const Simulator &source)
    : program_(source.program_), cfg_(source.cfg_), memsys_(source.memsys_),
      vault_(source.vault_), store_(source.store_)
{
    // Harness attachments describe the source's run, not a fork's:
    // forks record/replay/measure only what their own harness attaches.
    cfg_.traceRecorder = nullptr;
    cfg_.replayTrace = nullptr;
    cfg_.measurementSink = nullptr;
    cfg_.sigStorePrototype = nullptr;
    cfg_.memoryImage = nullptr; // each slot's memory is the fork's image

    // No loadInto(): the forked memories already hold the program image
    // and signature tables exactly as the source left them, and the
    // store handle shares the source's (immutable) table build.
    for (const std::unique_ptr<CoreSlot> &from : source.slots_) {
        REV_ASSERT(!from->core->machine().replaying(),
                   "snapshots require direct execution");
        const unsigned c = numCores();
        CoreSlot &s = *slots_.emplace_back(std::make_unique<CoreSlot>());
        s.mem = from->mem.fork();
        // The run began at the source's pre-run image, so a failing fork
        // rolls back there, as a cold run does.
        if (cfg_.pageShadowing)
            s.pristine = from->pristine.fork();
        createValidator(s, c, from->validator.get());
        s.core = std::make_unique<cpu::Core>(*from->core, s.mem, memsys_,
                                             s.validator.get());
        // A core whose run already ended keeps its stored result rather
        // than re-running drained, or the aggregate would diverge from a
        // cold run's.
        s.finished = from->finished;
    }
}

Snapshot::Snapshot(const Simulator &sim)
    : instrIndex(sim.slot0().core->committedInstrs()),
      machine_(new Simulator(sim))
{
}

Snapshot::Snapshot(const Snapshot &other)
    : instrIndex(other.instrIndex), machine_(new Simulator(*other.machine_))
{
}

void
Simulator::createValidator(CoreSlot &slot, unsigned core_id,
                           const validate::Validator *source)
{
    validate::BackendContext ctx;
    ctx.store = store_ ? &*store_ : nullptr;
    ctx.vault = &vault_;
    ctx.mem = &slot.mem;
    ctx.memsys = &memsys_;
    ctx.rev = cfg_.rev;
    ctx.lofat = cfg_.lofat;
    ctx.coreId = core_id;
    slot.validator =
        source ? source->fork(ctx)
               : validate::ValidatorRegistry::instance().create(cfg_.backend,
                                                                ctx);
    if (slot.validator->kind() == Backend::Rev)
        slot.revEngine =
            static_cast<validate::RevValidator *>(slot.validator.get());
    else if (slot.validator->kind() == Backend::LoFat)
        slot.lofatEngine =
            static_cast<validate::LoFatValidator *>(slot.validator.get());
}

Snapshot
Simulator::capture() const
{
    return Snapshot(*this);
}

bool
Simulator::traceAttachable(const prog::Trace &t, const SparseMemory &mem) const
{
    if (!t.replayable() || t.entryPc != program_.entry() ||
        t.maxInstrs != cfg_.core.maxInstrs ||
        !(t.splitLimits == cfg_.core.splitLimits))
        return false;
    // Every page the recorded run decoded from must hold exactly the
    // bytes it held then. Versions count writes since creation, and both
    // simulators perform the same deterministic load; a mismatch means
    // different code (or a page the recording run's mode wrote but this
    // one did not, e.g. a signature-table page reached by a wild
    // wrong-path fetch) — fall back to direct execution.
    for (const auto &[page, version] : t.codePages) {
        const SparseMemory::PageView v = mem.pageView(page);
        if ((v.version ? *v.version : 0) != version)
            return false;
    }
    return true;
}

void
Simulator::reloadProgram()
{
    // The code image is changing underneath the recording: a replay could
    // decode different bytes than the recorded run executed.
    if (cfg_.traceRecorder)
        cfg_.traceRecorder->markExternalMutation();
    // Copy-on-write: this simulator's handle gets a fresh build; the
    // prototype, snapshots and forks sharing the old one keep it.
    if (store_)
        store_->rebuild(program_);
    for (auto &sp : slots_) {
        program_.loadInto(sp->mem);
        if (store_)
            store_->loadInto(sp->mem);
        sp->validator->refreshTables();
        if (cfg_.pageShadowing)
            sp->pristine = sp->mem.clone();
    }
}

bool
Simulator::runUntil(u64 index)
{
    if (slots_.size() == 1)
        return slot0().core->runUntil(index);

    // Snapshot cursors execute directly: a replayed machine maintains no
    // architectural state to capture.
    REV_ASSERT(!replayActive(), "runUntil() on a replaying machine");
    const u64 q = cfg_.schedQuantumInstrs;
    while (true) {
        if (slot0().finished)
            return false;
        CoreSlot *s = nextToRun();
        if (!s)
            return false;
        const bool is0 = s == slots_.front().get();
        const u64 committed = s->core->committedInstrs();
        if (is0 && committed >= index)
            return true;
        u64 target = (committed / q + 1) * q;
        if (is0)
            target = std::min(target, index);
        cpu::RunResult out;
        if (!s->core->runSlice(target, &out)) {
            s->finished = out;
            if (is0)
                return false;
        }
    }
}

Simulator::CoreSlot *
Simulator::nextToRun()
{
    // Deterministic stateless schedule: the least-advanced slot (in
    // completed quanta) runs next, ties to the lowest core id. Because
    // the pick is a pure function of the per-core committed counts, a
    // fork restored from a snapshot replays the identical cross-core
    // interleaving of memory-system traffic a cold run produces.
    const u64 q = cfg_.schedQuantumInstrs;
    CoreSlot *best = nullptr;
    u64 best_round = 0;
    for (auto &sp : slots_) {
        if (sp->finished)
            continue;
        const u64 round = sp->core->committedInstrs() / q;
        if (!best || round < best_round) {
            best = sp.get();
            best_round = round;
        }
    }
    return best;
}

stats::StatSet
Simulator::stats() const
{
    stats::StatSet set;
    stats::StatGroup group("sim");
    memsys_.addStats(group);
    if (slots_.size() == 1) {
        // Single-core: the historical row set, byte for byte.
        slot0().core->predictor().addStats(group);
        slot0().validator->addStats(group);
        group.snapshot(set);
        slot0().validator->snapshotStats(set, "sim");
        return set;
    }

    // Multicore: the memory system's shared + per-core rows, then one
    // "sim.cK." block per core (predictor, backend components, backend
    // counters).
    group.snapshot(set);
    for (std::size_t c = 0; c < slots_.size(); ++c) {
        const CoreSlot &s = *slots_[c];
        stats::StatGroup per("sim");
        s.core->predictor().addStats(per);
        s.validator->addStats(per);
        stats::StatSet sub;
        per.snapshot(sub);
        s.validator->snapshotStats(sub, "sim");
        const std::string prefix = "sim.c" + std::to_string(c) + ".";
        for (const auto &[name, value] : sub.rows())
            set.add(prefix + name.substr(4), value); // 4 = strlen("sim.")
    }
    return set;
}

void
Simulator::dumpStats(std::ostream &os) const
{
    stats().dump(os);
}

void
Simulator::resetStats()
{
    memsys_.resetStats();
    for (auto &sp : slots_)
        sp->validator->resetStats();
}

SimResult
Simulator::run()
{
    if (slots_.size() == 1) {
        slot0().finished = slot0().core->run();
        return aggregate();
    }

    // Slots that merely exhausted an instruction budget resume with a
    // fresh budget, like a repeated run() does on a single core; halted
    // or faulted slots keep their final result.
    for (auto &sp : slots_)
        if (sp->finished && !sp->finished->halted && !sp->finished->violation)
            sp->finished.reset();

    const u64 q = cfg_.schedQuantumInstrs;
    while (CoreSlot *s = nextToRun()) {
        const u64 target = (s->core->committedInstrs() / q + 1) * q;
        cpu::RunResult out;
        if (!s->core->runSlice(target, &out))
            s->finished = out;
    }
    return aggregate();
}

SimResult
Simulator::aggregate()
{
    SimResult res;
    res.perCore.reserve(slots_.size());
    for (auto &sp : slots_)
        res.perCore.push_back(sp->finished ? *sp->finished
                                           : cpu::RunResult{});

    if (slots_.size() == 1) {
        res.run = res.perCore.front();
    } else {
        bool all_halted = true;
        for (std::size_t c = 0; c < res.perCore.size(); ++c) {
            const cpu::RunResult &r = res.perCore[c];
            res.run.cycles = std::max(res.run.cycles, r.cycles);
            res.run.instrs += r.instrs;
            res.run.committedBranches += r.committedBranches;
            res.run.uniqueBranches += r.uniqueBranches;
            res.run.mispredicts += r.mispredicts;
            res.run.loads += r.loads;
            res.run.stores += r.stores;
            res.run.interrupts += r.interrupts;
            res.run.wrongPathFetches += r.wrongPathFetches;
            all_halted = all_halted && r.halted;
            // Earliest violation wins (by cycle, then core id).
            if (r.violation &&
                (!res.run.violation ||
                 r.violation->cycle < res.run.violation->cycle))
                res.run.violation = r.violation;
        }
        res.run.halted = all_halted && !res.run.violation;
    }

    if (cfg_.traceRecorder) {
        if (res.perCore.front().violation)
            cfg_.traceRecorder->markViolation();
        cfg_.traceRecorder->finish(slot0().core->machine());
    }

    for (std::size_t c = 0; c < slots_.size(); ++c) {
        const std::unique_ptr<CoreSlot> &sp = slots_[c];
        // A finished execution seals the measurement session; a quantum
        // that merely exhausted its instruction budget (warm-up/steady-
        // state phases) leaves the session open for the next run().
        const cpu::RunResult &r = res.perCore[c];
        if (r.halted || r.violation)
            sp->validator->sealMeasurement();

        const validate::ValidationStats v = sp->validator->commonStats();
        res.validation.bbValidated += v.bbValidated;
        res.validation.violations += v.violations;
        res.validation.commitStallCycles += v.commitStallCycles;
        if (sp->revEngine) {
            const validate::RevStats r2 = sp->revEngine->stats();
            res.rev.bbValidated += r2.bbValidated;
            res.rev.violations += r2.violations;
            res.rev.commitStallCycles += r2.commitStallCycles;
            res.rev.scCompleteMisses += r2.scCompleteMisses;
            res.rev.scPartialMisses += r2.scPartialMisses;
            res.rev.tableWalkReads += r2.tableWalkReads;
            res.rev.sagExceptions += r2.sagExceptions;
            res.rev.shadowSpills += r2.shadowSpills;
            res.rev.shadowRefills += r2.shadowRefills;
        }
        if (sp->lofatEngine) {
            const validate::LoFatStats l = sp->lofatEngine->stats();
            res.lofat.bbValidated += l.bbValidated;
            res.lofat.violations += l.violations;
            res.lofat.commitStallCycles += l.commitStallCycles;
            res.lofat.chainUpdates += l.chainUpdates;
            res.lofat.bufferSpills += l.bufferSpills;
            res.lofat.spillBytes += l.spillBytes;
            res.lofat.unattestedBlocks += l.unattestedBlocks;
            res.lofat.edgeViolations += l.edgeViolations;
        }
    }
    if (store_)
        res.sigTableBytes = store_->totalTableBytes();
    res.scFillAccesses = memsys_.accesses(mem::AccessType::ScFill);
    res.scFillL1Misses = memsys_.l1Misses(mem::AccessType::ScFill);
    res.scFillL2Misses = memsys_.l2Misses(mem::AccessType::ScFill);

    if (cfg_.pageShadowing && res.run.violation) {
        // Strict R5 (Sec. IV.A): the compromised execution's shadow pages
        // are never mapped in; the original state survives intact.
        for (auto &sp : slots_)
            sp->mem = sp->pristine.clone();
        res.memoryRolledBack = true;
    }
    return res;
}

} // namespace rev::core
