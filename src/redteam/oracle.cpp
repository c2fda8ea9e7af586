#include "redteam/oracle.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "attacks/injector.hpp"
#include "common/logging.hpp"
#include "isa/codec.hpp"
#include "sig/table.hpp"
#include "workloads/generator.hpp"
#include "workloads/scheduler.hpp"

namespace rev::redteam
{

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Detected: return "detected";
      case Verdict::Crashed: return "crashed";
      case Verdict::Benign: return "benign";
      case Verdict::Blind: return "blind";
      case Verdict::Escape: return "escape";
    }
    return "?";
}

attacks::TamperClass
tamperClassOf(InjectionClass c)
{
    using attacks::TamperClass;
    switch (c) {
      case InjectionClass::CodeFlip:
      case InjectionClass::CfgRewire:
      case InjectionClass::DmaWrite:
      case InjectionClass::TimingJitter:
        // All four rewrite signed code bytes in place; the control-flow
        // *shape* REV models (block boundaries, signed edges) is only
        // changed through those bytes, which is exactly what the hash
        // covers — and what CFI-only validation cannot see.
        return TamperClass::CodeSubstitution;
      case InjectionClass::RetSmash:
        return TamperClass::ControlFlowHijack;
      case InjectionClass::SigCorrupt:
        return TamperClass::SignatureTamper;
      case InjectionClass::NoOp:
        break;
    }
    return TamperClass::CodeSubstitution; // NoOp: unused, see below
}

bool
classDetectableIn(InjectionClass c, sig::ValidationMode mode,
                  validate::Backend backend)
{
    if (c == InjectionClass::NoOp)
        return false;
    return validate::backendClaims(backend, tamperClassOf(c), mode);
}

bool
mechanismMatches(InjectionClass c, const std::string &reason,
                 validate::Backend backend)
{
    const auto has = [&](const char *s) {
        return reason.find(s) != std::string::npos;
    };
    if (backend == validate::Backend::LoFat) {
        // LO-FAT has exactly three mechanisms: the attested-CFG lookup
        // missing (tampered terminator bytes decode to a block shape the
        // attestation never signed), an edge absent from the attested
        // CFG, and a return to a non-return-site. Code tampering can
        // cascade into any of them (a flipped branch immediate is an
        // edge violation; a flipped opcode shifts the block boundary).
        switch (c) {
          case InjectionClass::CodeFlip:
          case InjectionClass::CfgRewire:
          case InjectionClass::DmaWrite:
          case InjectionClass::TimingJitter:
          case InjectionClass::SigCorrupt:
          case InjectionClass::RetSmash:
            return has("unattested code") ||
                   has("absent from attested CFG") ||
                   has("not an attested return site");
          case InjectionClass::NoOp:
            break;
        }
        return false;
    }
    // Primary mechanisms per class, plus the cascades a tamper can
    // legitimately trigger (e.g. a code flip that corrupts a stack-
    // pointer adjustment derails the next return). The shadow-stack
    // reasons are excluded for everything but RetSmash: the campaign
    // configuration uses delayed-predecessor return validation, and for
    // code tampering they would indicate a misattributed detection.
    switch (c) {
      case InjectionClass::CodeFlip:
      case InjectionClass::CfgRewire:
      case InjectionClass::DmaWrite:
      case InjectionClass::TimingJitter:
      case InjectionClass::SigCorrupt:
        return has("basic-block hash mismatch") ||
               has("no reference signature") || has("illegal transfer") ||
               has("return from");
      case InjectionClass::RetSmash:
        return has("illegal transfer") || has("return from") ||
               has("return to") || has("shadow stack") ||
               has("no reference signature") ||
               has("basic-block hash mismatch");
      case InjectionClass::NoOp:
        break;
    }
    return false;
}

core::SimConfig
campaignSimConfig(const CampaignSpec &spec, sig::ValidationMode mode,
                  const TimingVariant &timing)
{
    core::SimConfig cfg;
    cfg.mode = mode;
    cfg.withRev = !spec.disableRev;
    cfg.backend = spec.backend;
    cfg.core.maxInstrs = spec.instrBudget;
    // Wrong-path fetch reads bytes the architectural run never executes;
    // an architecturally inert tamper would perturb I-side statistics
    // through it and fake a divergence. The oracle compares against
    // goldens, so both sides run without it.
    cfg.core.modelWrongPath = false;
    cfg.rev.sc.sizeBytes = timing.scSizeBytes;
    // The LO-FAT backend has no SC; the timing axis scales its on-chip
    // measurement buffer by the same SRAM budget instead (the default
    // 32 KiB variant lands exactly on the default 64 entries).
    cfg.lofat.bufferEntries =
        std::max<u64>(16, timing.scSizeBytes / 512);
    return cfg;
}

namespace
{

/** The one statistic legitimately perturbed by architecturally inert
 *  tampering: the CHG hash memo recompute counter (tamperCode drops the
 *  memo, so untouched blocks re-hash without any simulated effect). */
constexpr const char *kExcludedStat = "sim.chg.blocks_hashed";

bool
statsEqual(const stats::StatSet &a, const stats::StatSet &b)
{
    const auto &ra = a.rows();
    const auto &rb = b.rows();
    if (ra.size() != rb.size())
        return false;
    for (std::size_t i = 0; i < ra.size(); ++i) {
        if (ra[i].first != rb[i].first)
            return false;
        if (ra[i].first == kExcludedStat)
            continue;
        if (ra[i].second != rb[i].second)
            return false;
    }
    return true;
}

bool
runEqual(const core::SimResult &a, const core::SimResult &b)
{
    const cpu::RunResult &x = a.run;
    const cpu::RunResult &y = b.run;
    return x.cycles == y.cycles && x.instrs == y.instrs &&
           x.committedBranches == y.committedBranches &&
           x.uniqueBranches == y.uniqueBranches &&
           x.mispredicts == y.mispredicts && x.loads == y.loads &&
           x.stores == y.stores && x.interrupts == y.interrupts &&
           x.wrongPathFetches == y.wrongPathFetches &&
           x.halted == y.halted &&
           a.scFillAccesses == b.scFillAccesses &&
           a.scFillL1Misses == b.scFillL1Misses &&
           a.scFillL2Misses == b.scFillL2Misses;
}

/**
 * Compare final functional memory, ignoring (a) the signature-table
 * region — its content is mode-specific and REV-internal — and (b) the
 * byte ranges the injector itself dirtied (a tamper that was never
 * re-fetched leaves its bytes behind without any architectural effect).
 */
bool
memoryEqual(const SparseMemory &a, const SparseMemory &b,
            const std::vector<std::pair<Addr, u64>> &masked)
{
    constexpr u64 kPageSize = SparseMemory::kPageSize;
    const u64 sig_page = sig::kSigTableRegion >> SparseMemory::kPageShift;

    std::vector<u64> pages;
    a.forEachPage([&](u64 p, const u8 *) { pages.push_back(p); });
    b.forEachPage([&](u64 p, const u8 *) { pages.push_back(p); });
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

    std::vector<u8> bufA(kPageSize), bufB(kPageSize);
    for (u64 p : pages) {
        if (p >= sig_page)
            continue;
        const Addr base = p << SparseMemory::kPageShift;
        a.readBytes(base, bufA.data(), kPageSize);
        b.readBytes(base, bufB.data(), kPageSize);
        for (const auto &[addr, len] : masked) {
            if (addr + len <= base || addr >= base + kPageSize)
                continue;
            const u64 lo = std::max<u64>(addr, base) - base;
            const u64 hi = std::min<u64>(addr + len, base + kPageSize) - base;
            std::memset(bufA.data() + lo, 0, hi - lo);
            std::memset(bufB.data() + lo, 0, hi - lo);
        }
        if (std::memcmp(bufA.data(), bufB.data(), kPageSize) != 0)
            return false;
    }
    return true;
}

} // namespace

std::unique_ptr<WorkloadContext>
buildWorkloadContext(const workloads::WorkloadProfile &profile,
                     const CampaignSpec &spec,
                     const std::vector<sig::ValidationMode> &modes,
                     const TimingVariant &record_timing)
{
    REV_ASSERT(!modes.empty(), "campaign needs at least one mode");
    auto ctx = std::make_unique<WorkloadContext>();
    ctx->name = profile.name;
    ctx->program = workloads::buildProgram(profile);

    const core::SimConfig probe =
        campaignSimConfig(spec, modes.front(), record_timing);

    // One signature-table build per mode; the first build donates its
    // CFGs and block hashes to the rest (mode-independent, and the
    // dominant build cost). Mirrors the benchmark sweep's prototype
    // sharing; each Simulator shares these builds instead of rebuilding.
    if (!spec.disableRev) {
        const crypto::KeyVault vault(probe.cpuSeed);
        for (sig::ValidationMode mode : modes) {
            const sig::SigStore *donor =
                ctx->protos.empty() ? nullptr : &ctx->protos.begin()->second;
            ctx->protos.try_emplace(
                mode, ctx->program, mode, vault, probe.toolchainSeed,
                probe.core.splitLimits, probe.rev.chg.hashRounds, donor);
        }
    }

    // Golden record run: REV attached (its store-drain watermark
    // dominates, see program/trace.hpp), trace recorded, executed pcs
    // collected through a pre-step hook.
    core::SimConfig cfg = probe;
    if (!spec.disableRev)
        cfg.sigStorePrototype = &ctx->protos.at(modes.front());
    prog::TraceRecorder recorder;
    if (!spec.disableRev)
        cfg.traceRecorder = &recorder;
    core::Simulator sim(ctx->program, cfg);
    // Every committed-stream position per executed pc (ascending by
    // construction): feeds the executed-site map, the quiescence maps,
    // and the pc-gated hook resolution of provablyBenignResult().
    std::unordered_map<Addr, std::vector<u64>> exec_pos;
    sim.core().setPreStepHook(
        [&exec_pos](u64 idx, Addr pc) { exec_pos[pc].push_back(idx); });
    const core::SimResult r = sim.run();
    REV_ASSERT(!r.run.violation,
               "campaign golden run raised a violation: " +
                   r.run.violation->reason);

    ctx->goldenMemory = sim.memory().clone();
    ctx->goldenInstrs = r.run.instrs;
    if (!spec.disableRev)
        ctx->trace = recorder.take();
    ctx->goldens[{modes.front(), record_timing.name}] =
        GoldenRun{sim.stats(), r};

    // Executed-site map: every committed pc inside the main module's
    // code, decoded from the pristine image. Plans draw flip targets,
    // rewirable direct branches, and return-redirect addresses from it.
    std::vector<Addr> sorted;
    sorted.reserve(exec_pos.size());
    for (const auto &[pc, positions] : exec_pos)
        sorted.push_back(pc);
    std::sort(sorted.begin(), sorted.end());
    std::vector<Addr> call_fallthroughs;
    for (Addr pc : sorted) {
        const prog::Module *mod = ctx->program.findModule(pc);
        if (!mod || !mod->containsCode(pc))
            continue;
        const std::size_t off = static_cast<std::size_t>(pc - mod->base);
        const auto ins =
            isa::decode(mod->image.data() + off, mod->codeSize - off);
        if (!ins)
            continue;
        ExecSite site{pc, static_cast<u8>(ins->length()), ins->klass()};
        if (site.klass == isa::InstrClass::Call ||
            site.klass == isa::InstrClass::CallIndirect)
            call_fallthroughs.push_back(pc + site.len);
        ctx->sites.push_back(site);
    }
    REV_ASSERT(!ctx->sites.empty(), "campaign workload executed no code");
    std::sort(call_fallthroughs.begin(), call_fallthroughs.end());
    for (std::size_t i = 0; i < ctx->sites.size(); ++i) {
        const ExecSite &s = ctx->sites[i];
        if (s.klass == isa::InstrClass::Branch ||
            s.klass == isa::InstrClass::Jump ||
            s.klass == isa::InstrClass::Call)
            ctx->branchSites.push_back(i);
        // A pc that is not any call's fall-through can never be a legal
        // return site, so a return smashed to it must trip validation.
        if (!std::binary_search(call_fallthroughs.begin(),
                                call_fallthroughs.end(), s.pc))
            ctx->retRedirects.push_back(s.pc);
    }

    // Quiescence maps (see the WorkloadContext docs). The exec map marks
    // each executed instruction's own byte span with its last stream
    // position. The hash map additionally spreads each block entry over
    // the block's whole [start, end) span — the CHG digests exactly that
    // span whenever the block is fetched — marked through the end of the
    // digest's consumption window: the staged lane request snapshots the
    // block bytes no later than the terminator's commit (position entry
    // + numInstrs - 1), so a tamper at any position <= that can still be
    // read by the in-flight digest and must not be treated as quiescent.
    {
        const prog::Module &mm = ctx->program.main();
        ctx->quiescenceBase = mm.base;
        ctx->quiescenceExec.assign(mm.codeSize, 0);
        for (const ExecSite &s : ctx->sites) {
            if (s.pc < mm.base || s.pc + s.len > mm.base + mm.codeSize)
                continue;
            const u64 idx = exec_pos.at(s.pc).back();
            for (u64 b = s.pc - mm.base; b < s.pc - mm.base + s.len; ++b)
                ctx->quiescenceExec[b] =
                    std::max(ctx->quiescenceExec[b], idx);
        }
        ctx->quiescenceHash = ctx->quiescenceExec;
        if (!spec.disableRev) {
            for (const sig::ModuleSig &ms :
                 ctx->protos.at(modes.front()).moduleSigs()) {
                if (ms.module->base != mm.base)
                    continue;
                for (const prog::BasicBlock &bb : ms.cfg->blocks()) {
                    const auto it = exec_pos.find(bb.start);
                    if (it == exec_pos.end())
                        continue; // block never entered, never digested
                    const u64 mark = it->second.back() + bb.numInstrs;
                    const Addr lo = std::max(bb.start, mm.base);
                    const Addr hi =
                        std::min(bb.end, mm.base + mm.codeSize);
                    for (Addr a = lo; a < hi; ++a)
                        ctx->quiescenceHash[a - mm.base] = std::max(
                            ctx->quiescenceHash[a - mm.base], mark);
                }
            }
        }
    }
    ctx->execPositions = std::move(exec_pos);
    return ctx;
}

std::optional<InjectionResult>
provablyBenignResult(const WorkloadContext &ctx, const CampaignSpec &spec,
                     const InjectionPlan &plan)
{
    InjectionResult res;
    res.planId = plan.id;
    res.verdict = Verdict::Benign;

    // Resolve the hook's firing position against the golden stream. Up
    // to that position the armed run is untampered and therefore
    // bit-identical to golden, so the golden stream IS the armed run's
    // stream — no firing position means the hook provably never fires.
    std::optional<u64> fire_pos;
    switch (plan.klass) {
      case InjectionClass::NoOp:
      case InjectionClass::CodeFlip:
      case InjectionClass::CfgRewire:
      case InjectionClass::DmaWrite:
        // onceAtIndex fires iff the stream reaches the fire index.
        if (plan.fireIndex < ctx.goldenInstrs)
            fire_pos = plan.fireIndex;
        break;
      case InjectionClass::TimingJitter:
        if (plan.phase == JitterPhase::MidBlock) {
            if (plan.fireIndex < ctx.goldenInstrs)
                fire_pos = plan.fireIndex;
            break;
        }
        // PreFetch / PostCommit gate on watchPc: the hook arms at the
        // first golden execution of watchPc at position >= fireIndex.
        {
            const auto it = ctx.execPositions.find(plan.watchPc);
            if (it == ctx.execPositions.end())
                break;
            const std::vector<u64> &pos = it->second;
            const auto lb =
                std::lower_bound(pos.begin(), pos.end(), plan.fireIndex);
            if (lb == pos.end())
                break;
            if (plan.phase == JitterPhase::PreFetch)
                fire_pos = *lb; // flips before watchPc executes
            // PostCommit flips one pre-step after the arming one — which
            // never comes if the arming instruction ends the stream.
            else if (*lb + 1 < ctx.goldenInstrs)
                fire_pos = *lb + 1;
            break;
        }
      case InjectionClass::SigCorrupt:
      case InjectionClass::RetSmash:
        // Whether a corrupted table record is ever re-walked (or a
        // smashed slot popped into a violation) is timing-dependent;
        // not provable from the recorded stream alone.
        return std::nullopt;
    }

    if (!fire_pos)
        return res; // never fires: the run is the untampered golden run
    res.fired = true;
    if (plan.klass == InjectionClass::NoOp)
        return res; // fires but tampers nothing

    // CFI-only never digests code bytes under the REV validator, so only
    // re-execution matters there. The LO-FAT backend digests every fetched
    // block regardless of the mode axis, so it always needs the hash map.
    const bool hashes_code =
        !spec.disableRev && (spec.backend != validate::Backend::Rev ||
                             plan.mode != sig::ValidationMode::CfiOnly);
    const std::vector<u64> &q =
        hashes_code ? ctx.quiescenceHash : ctx.quiescenceExec;
    if (q.empty() || plan.payload.empty())
        return std::nullopt;
    if (plan.targetAddr < ctx.quiescenceBase)
        return std::nullopt;
    const u64 off = plan.targetAddr - ctx.quiescenceBase;
    if (off + plan.payload.size() > q.size())
        return std::nullopt;
    for (u64 i = 0; i < plan.payload.size(); ++i)
        if (q[off + i] >= *fire_pos)
            return std::nullopt;
    return res;
}

void
addGolden(WorkloadContext &ctx, const CampaignSpec &spec,
          sig::ValidationMode mode, const TimingVariant &timing)
{
    if (ctx.goldens.count({mode, timing.name}))
        return;
    core::SimConfig cfg = campaignSimConfig(spec, mode, timing);
    if (!spec.disableRev)
        cfg.sigStorePrototype = &ctx.protos.at(mode);
    if (!spec.disableRev && prog::replayEnabledFromEnv() &&
        ctx.trace.replayable())
        cfg.replayTrace = &ctx.trace;
    core::Simulator sim(ctx.program, cfg);
    const core::SimResult r = sim.run();
    REV_ASSERT(!r.run.violation,
               "campaign golden run raised a violation: " +
                   r.run.violation->reason);
    ctx.goldens[{mode, timing.name}] = GoldenRun{sim.stats(), r};
}

namespace
{

/** What the armed hooks record while the injected run executes. */
struct FireState
{
    bool fired = false;
    Cycle fireCycle = 0;
    std::vector<std::pair<Addr, u64>> dirtied;
};

/** Install @p plan's tamper hook on @p sim. Every hook fires at
 *  committed index >= plan.fireIndex, which is what makes forking the
 *  machine at exactly that index equivalent to a cold run. @p st must
 *  outlive the run. */
void
armPlan(core::Simulator &sim, const InjectionPlan &plan, FireState &st)
{
    namespace inject = attacks::inject;

    const auto stamp = [&st](core::Simulator &s) {
        st.fireCycle = s.core().lastCommitCycle();
    };
    const auto flip = [&st, &plan, stamp](core::Simulator &s) {
        stamp(s);
        inject::tamperCode(s, plan.targetAddr, plan.payload);
        st.dirtied.emplace_back(plan.targetAddr, plan.payload.size());
    };

    switch (plan.klass) {
      case InjectionClass::NoOp:
        inject::onceAtIndex(sim, plan.fireIndex, stamp, st.fired);
        break;
      case InjectionClass::CodeFlip:
      case InjectionClass::CfgRewire:
      case InjectionClass::DmaWrite:
        inject::onceAtIndex(sim, plan.fireIndex, flip, st.fired);
        break;
      case InjectionClass::SigCorrupt:
        // Straight into simulated RAM: the signature tables are data to
        // the memory system, there is no decode/hash memo to drop.
        inject::onceAtIndex(
            sim, plan.fireIndex,
            [&st, &plan, stamp](core::Simulator &s) {
                stamp(s);
                s.memory().writeBytes(plan.targetAddr, plan.payload.data(),
                                      plan.payload.size());
                st.dirtied.emplace_back(plan.targetAddr,
                                        plan.payload.size());
            },
            st.fired);
        break;
      case InjectionClass::RetSmash:
        inject::onceAtReturn(
            sim, plan.fireIndex,
            [&st, &plan, stamp](core::Simulator &s) {
                stamp(s);
                st.dirtied.emplace_back(
                    s.core().machine().reg(isa::kRegSp), 8);
                inject::smashReturnAddress(s, plan.redirectTarget);
            },
            st.fired);
        break;
      case InjectionClass::TimingJitter:
        switch (plan.phase) {
          case JitterPhase::PreFetch:
            inject::onceAtPc(sim, plan.watchPc, plan.fireIndex, flip,
                             st.fired);
            break;
          case JitterPhase::MidBlock:
            inject::onceAtIndex(sim, plan.fireIndex, flip, st.fired);
            break;
          case JitterPhase::PostCommit: {
            // Arm when the watched pc is about to execute, fire right
            // after it committed: the block was just validated, the flip
            // must still be caught on its next execution (the paper's
            // continuous-validation property).
            sim.core().setPreStepHook([&st, &plan, &sim, flip,
                                       armed = false](u64 idx,
                                                      Addr pc) mutable {
                if (st.fired)
                    return;
                if (!armed) {
                    armed = idx >= plan.fireIndex && pc == plan.watchPc;
                    return;
                }
                st.fired = true;
                flip(sim);
            });
            break;
          }
        }
        break;
    }
}

/** Arm @p plan on @p sim, run to completion, classify against the
 *  golden. Shared tail of the cold and snapshot-forked paths. */
InjectionResult
runArmed(const WorkloadContext &ctx, const CampaignSpec &spec,
         const InjectionPlan &plan, const TimingVariant &timing,
         core::Simulator &sim)
{
    InjectionResult res;
    res.planId = plan.id;

    FireState st;
    armPlan(sim, plan, st);
    const core::SimResult r = sim.run();
    res.fired = st.fired;

    if (r.run.violation) {
        res.reason = r.run.violation->reason;
        if (res.reason == "undecodable instruction bytes") {
            res.verdict = Verdict::Crashed;
        } else if (!st.fired) {
            // A violation without any tamper means the harness itself is
            // broken; surface it as loudly as an escape.
            res.verdict = Verdict::Escape;
        } else {
            res.verdict = Verdict::Detected;
            res.mechanismMatch =
                mechanismMatches(plan.klass, res.reason, spec.backend);
            res.latencyCycles = r.run.violation->cycle - st.fireCycle;
        }
        return res;
    }

    const GoldenRun &golden = ctx.goldens.at({plan.mode, timing.name});
    const bool identical = runEqual(r, golden.result) &&
                           statsEqual(sim.stats(), golden.stats) &&
                           memoryEqual(sim.memory(), ctx.goldenMemory,
                                       st.dirtied);
    if (identical)
        res.verdict = Verdict::Benign;
    else if (!spec.disableRev &&
             !classDetectableIn(plan.klass, plan.mode, spec.backend))
        res.verdict = Verdict::Blind;
    else
        res.verdict = Verdict::Escape;
    return res;
}

} // namespace

InjectionResult
runInjection(const WorkloadContext &ctx, const CampaignSpec &spec,
             const InjectionPlan &plan, const TimingVariant &timing)
{
    REV_ASSERT(timing.name == plan.timing, "plan/timing variant mismatch");

    core::SimConfig cfg = campaignSimConfig(spec, plan.mode, timing);
    if (!spec.disableRev)
        cfg.sigStorePrototype = &ctx.protos.at(plan.mode);
    core::Simulator sim(ctx.program, cfg);
    return runArmed(ctx, spec, plan, timing, sim);
}

InjectionResult
runInjectionFromSnapshot(const WorkloadContext &ctx,
                         const CampaignSpec &spec, const InjectionPlan &plan,
                         const TimingVariant &timing,
                         core::Snapshot snap)
{
    REV_ASSERT(timing.name == plan.timing, "plan/timing variant mismatch");
    REV_ASSERT(snap.instrIndex == plan.fireIndex,
               "snapshot captured at a different index than the plan fires");

    const std::unique_ptr<core::Simulator> sim =
        core::Simulator::forkFrom(std::move(snap));
    return runArmed(ctx, spec, plan, timing, *sim);
}

} // namespace rev::redteam
