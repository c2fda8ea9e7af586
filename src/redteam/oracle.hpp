/**
 * @file
 * The differential detection oracle.
 *
 * For each campaign workload the oracle records one golden run (trace +
 * final memory + statistics per validation mode and timing variant), then
 * executes every InjectionPlan against a fresh Simulator and classifies
 * the outcome:
 *
 *  - Detected: REV raised a violation. The reason string is checked
 *    against the mechanisms the tamper taxonomy predicts for the class,
 *    and the detection latency (violation commit cycle minus the firing
 *    cycle) is measured.
 *  - Crashed: the machine itself refused (undecodable instruction
 *    bytes). This is a loud failure, not a REV detection — random byte
 *    tampering frequently produces garbage encodings — and is counted
 *    separately so it can neither inflate the detection rate nor be
 *    mistaken for an escape.
 *  - Benign: no violation, and the run is bit-identical to the golden
 *    run — same RunResult, same statistics (modulo the CHG memo
 *    recompute counter, see oracle.cpp), same final memory outside the
 *    signature-table region and the injector's own dirtied bytes.
 *  - Blind: the run silently diverged, but the taxonomy predicts the
 *    class is undetectable in this validation mode (e.g. pure code
 *    substitution under CFI-only validation). Expected, not a bug.
 *  - Escape: the run silently diverged although the taxonomy says the
 *    class is detectable in this mode. This is the oracle's alarm — a
 *    validated REV configuration must produce zero of these.
 *
 * Soundness of the comparison relies on campaignSimConfig(): wrong-path
 * fetch is disabled (a wrong-path fetch would read architecturally inert
 * tampered bytes and perturb I-side statistics), and all injections are
 * restricted to executed code bytes, the signature tables, or the
 * return-address slot a RET is about to pop.
 */

#ifndef REV_REDTEAM_ORACLE_HPP
#define REV_REDTEAM_ORACLE_HPP

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/attack.hpp"
#include "core/simulator.hpp"
#include "redteam/plan.hpp"
#include "workloads/profile.hpp"

namespace rev::redteam
{

/** Oracle classification of one injection. */
enum class Verdict : u8
{
    Detected,
    Crashed,
    Benign,
    Blind,
    Escape,
};

const char *verdictName(Verdict v);

/** One timing configuration of the sweep matrix (SC capacity). */
struct TimingVariant
{
    std::string name;
    u64 scSizeBytes = 32 * 1024;
};

/** Map an injection class onto the Table-1 tamper taxonomy. */
attacks::TamperClass tamperClassOf(InjectionClass c);

/**
 * Does @p backend's claimed-coverage matrix predict detection of @p c
 * under @p mode? NoOp is never "predicted detectable" (it tampers
 * nothing).
 */
bool classDetectableIn(InjectionClass c, sig::ValidationMode mode,
                       validate::Backend backend = validate::Backend::Rev);

/** Is @p reason one of the violation mechanisms @p backend predicts for
 *  @p c? */
bool mechanismMatches(InjectionClass c, const std::string &reason,
                      validate::Backend backend = validate::Backend::Rev);

/** One executed instruction site of the golden run. */
struct ExecSite
{
    Addr pc = 0;
    u8 len = 0;
    isa::InstrClass klass = isa::InstrClass::Nop;
};

/** Golden results of one (mode, timing) configuration. */
struct GoldenRun
{
    stats::StatSet stats;
    core::SimResult result;
};

/**
 * Everything the oracle knows about one campaign workload: the program,
 * the shared signature-store prototypes (one per mode, donor-chained so
 * the CFG derivation and block hashing are paid once), the recorded
 * architectural trace, the golden final memory, the executed-site map
 * plan generation draws targets from, and the per-(mode, timing) golden
 * statistics.
 */
struct WorkloadContext
{
    std::string name;
    prog::Program program;
    std::map<sig::ValidationMode, sig::SigStore> protos;

    prog::Trace trace;        ///< recorded golden run (REV campaigns only)
    SparseMemory goldenMemory; ///< final functional memory of the record run
    u64 goldenInstrs = 0;      ///< committed instructions of the record run

    std::vector<ExecSite> sites;        ///< executed sites, sorted by pc
    std::vector<std::size_t> branchSites; ///< indices: direct Branch/Jump/Call
    std::vector<Addr> retRedirects; ///< executed pcs that are never legal
                                    ///< return sites (not call fall-throughs)

    /**
     * Quiescence maps over the main module's code bytes, recorded from
     * the golden stream: per byte, the last committed-stream position
     * whose instruction read it (exec), or additionally whose entered
     * block's CHG hash span covered it (hash; the validator digests
     * [start, end) of every block it fetches). A flip-class tamper
     * confined to bytes quiescent after its fire index provably leaves
     * the run bit-identical to golden — see provablyBenignResult().
     */
    Addr quiescenceBase = 0;
    std::vector<u64> quiescenceExec;
    std::vector<u64> quiescenceHash;

    /** Every committed-stream position of each executed pc, ascending.
     *  Lets the oracle resolve pc-gated hooks (TimingJitter PreFetch /
     *  PostCommit) against the golden stream: the hook's firing position
     *  is the first entry >= fireIndex, or "never fires" if none. */
    std::unordered_map<Addr, std::vector<u64>> execPositions;

    std::map<std::pair<sig::ValidationMode, std::string>, GoldenRun> goldens;
};

/** The shared simulation configuration of every campaign run. */
core::SimConfig campaignSimConfig(const CampaignSpec &spec,
                                  sig::ValidationMode mode,
                                  const TimingVariant &timing);

/**
 * Generate the workload, build the per-mode signature prototypes, run
 * the golden record run under (modes.front(), record_timing) — capturing
 * the trace, the final memory, and the executed-site map — and store
 * that configuration's golden results.
 */
std::unique_ptr<WorkloadContext>
buildWorkloadContext(const workloads::WorkloadProfile &profile,
                     const CampaignSpec &spec,
                     const std::vector<sig::ValidationMode> &modes,
                     const TimingVariant &record_timing);

/**
 * Run (or replay, when REV_TRACE_REPLAY allows) the golden configuration
 * (mode, timing) and store it in ctx.goldens. No-op if already present.
 */
void addGolden(WorkloadContext &ctx, const CampaignSpec &spec,
               sig::ValidationMode mode, const TimingVariant &timing);

/** Outcome of one injection. */
struct InjectionResult
{
    u64 planId = 0;
    Verdict verdict = Verdict::Benign;
    bool fired = false;          ///< the tamper hook actually triggered
    bool mechanismMatch = false; ///< Detected: reason in the predicted set
    std::string reason;          ///< violation reason, if any
    u64 latencyCycles = 0;       ///< Detected: violation cycle - fire cycle
};

/**
 * Execute @p plan against a fresh Simulator built from @p ctx and
 * classify the outcome against the golden run of (plan.mode, timing).
 */
InjectionResult runInjection(const WorkloadContext &ctx,
                             const CampaignSpec &spec,
                             const InjectionPlan &plan,
                             const TimingVariant &timing);

/**
 * Execute @p plan against a Simulator forked from @p snap — a warmed
 * snapshot of the plan's exact (workload, mode, timing) configuration,
 * captured at plan.fireIndex — instead of re-executing the prefix from
 * instruction zero. Every hook the campaign arms requires committed
 * index >= fireIndex, and a fork's instruction/cycle/statistics stream
 * from the snapshot index on is bit-identical to a cold run's
 * (tests/bench/snapshot_test.cpp), so the verdict, the violation cycle,
 * and therefore the detection matrix are unchanged. @p snap is a sink
 * (Simulator::forkFrom()): move the snapshot in for its last use.
 */
InjectionResult runInjectionFromSnapshot(const WorkloadContext &ctx,
                                         const CampaignSpec &spec,
                                         const InjectionPlan &plan,
                                         const TimingVariant &timing,
                                         core::Snapshot snap);

/**
 * Is @p plan's outcome provably Benign without executing anything? If
 * so, return the exact InjectionResult executing it would produce;
 * otherwise nullopt (the plan must run — conservative, never wrong).
 *
 * Two provable shapes, both decided purely from the recorded golden
 * stream:
 *
 *  - The hook never fires. onceAtIndex hooks need the stream to reach
 *    fireIndex; pc-gated jitter hooks need watchPc to execute at a
 *    position >= fireIndex (PostCommit additionally needs one more
 *    instruction after the arming one). If the golden stream rules that
 *    out, nothing is ever tampered: Benign, fired = false.
 *
 *  - The hook fires (NoOp, or a code tamper — CodeFlip, CfgRewire,
 *    DmaWrite, any TimingJitter phase) but the entire tampered range is
 *    quiescent from the resolved firing position on: no instruction of
 *    the golden stream at or after that position reads those bytes, and
 *    (when the backend digests code — everything except Null and
 *    REV/CFI-only) no block hash span consumed at or after it covers
 *    them. The tamper lands but is never fetched, decoded, or digested,
 *    so stream, statistics, and final memory are bit-identical to
 *    golden: Benign, fired = true.
 *
 * Used by the campaign's snapshot mode to skip such runs; the
 * non-snapshot mode still executes them, so the CI matrix comparison
 * cross-checks this proof end to end.
 */
std::optional<InjectionResult>
provablyBenignResult(const WorkloadContext &ctx, const CampaignSpec &spec,
                     const InjectionPlan &plan);

} // namespace rev::redteam

#endif // REV_REDTEAM_ORACLE_HPP
