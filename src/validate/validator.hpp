/**
 * @file
 * The pluggable validation-backend interface.
 *
 * The out-of-order core is validator-agnostic: it reports front-end and
 * commit events through this interface and respects the commit-gating /
 * store-deferral answers. Concrete backends live beside this header —
 * RevValidator (the paper's mechanism), LoFatValidator (hash-chained
 * control-flow attestation), and the NullValidator base case — and are
 * constructed through the ValidatorRegistry (registry.hpp) keyed by the
 * Backend enum.
 *
 * Validator is a *null object*, not a pure interface: every hook has a
 * do-nothing default with base-case semantics (commit never gated, every
 * block passes, stores drain eagerly), so the core calls hooks
 * unconditionally instead of guarding each call site with a null check,
 * and a new backend overrides only the events it cares about.
 */

#ifndef REV_VALIDATE_VALIDATOR_HPP
#define REV_VALIDATE_VALIDATOR_HPP

#include <memory>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "isa/instr.hpp"

namespace rev::validate
{

class MeasurementSink; // stream.hpp — the prover/verifier wire format

/** The registered validation backends (see registry.hpp). */
enum class Backend : u8
{
    Rev = 0,   ///< the paper's signature-based validation engine
    LoFat = 1, ///< LO-FAT-style hash-chained control-flow attestation
    Null = 2,  ///< no validation (the paper's base case)
};

/**
 * Opaque capture of a backend's complete mid-run state — inflight ring,
 * hash chain, CHG memo, caches, latches, counters.
 * Produced by Validator::saveSnapshot() and consumed by
 * restoreSnapshot() on a validator of the same backend and configuration
 * bound to a fork of the source's memory image (snapshot forking,
 * core/snapshot.hpp). The base type is the null backend's (empty) state.
 */
struct ValidatorSnapshot
{
    virtual ~ValidatorSnapshot() = default;
};

/** Stable CLI name, e.g. "rev". */
const char *backendName(Backend b);

/** Parse a backend name; false on an unknown string. */
bool backendFromName(const std::string &name, Backend *out);

/** Front-end description of a dynamic basic block whose terminator was
 *  just fetched. */
struct BBFetchInfo
{
    BBSeq bbSeq = 0;       ///< dynamic basic-block instance id
    Addr start = 0;        ///< first instruction address
    Addr term = 0;         ///< terminating instruction address
    Addr end = 0;          ///< first byte past the terminator
    isa::InstrClass termClass = isa::InstrClass::Nop;
    bool artificialSplit = false; ///< ended by the split rule, not control flow
    SeqNum termSeq = 0;    ///< sequence number of the terminator
    Cycle fetchDoneAt = 0; ///< cycle the terminator left the fetch stage

    /**
     * Start address of the next dynamic basic block. The hardware would
     * use the predicted target here (probing for a partial miss); the
     * model uses the resolved target, which matches whenever the BTB
     * predicts correctly (the dominant case).
     */
    Addr nextStart = 0;
};

/** Counters every backend reports; backend-specific counters live in the
 *  per-backend stats structs (RevStats, LoFatStats) deriving from this. */
struct ValidationStats
{
    u64 bbValidated = 0;
    u64 violations = 0;
    Cycle commitStallCycles = 0;
};

/**
 * Validation-backend integration points.
 */
class Validator
{
  public:
    virtual ~Validator() = default;

    /** Which backend this is (registry key). */
    virtual Backend kind() const { return Backend::Null; }

    // --- core-facing event hooks ----------------------------------------

    /**
     * The front end finished fetching a basic block: hash units consume
     * its bytes, reference lookups start.
     */
    virtual void onBBFetched(const BBFetchInfo &info) { (void)info; }

    /**
     * Earliest cycle the terminator of @p bb may commit; @p earliest is
     * the commit time the pipeline could otherwise achieve.
     */
    virtual Cycle
    commitReadyAt(BBSeq bb, Cycle earliest)
    {
        (void)bb;
        return earliest;
    }

    /**
     * The terminator of @p bb commits now: authenticate the block.
     * @param actual_target Where control actually flows next.
     * @return false on a validation failure (an exception is raised).
     */
    virtual bool
    validateBB(BBSeq bb, Addr actual_target, Cycle commit_cycle)
    {
        (void)bb;
        (void)actual_target;
        (void)commit_cycle;
        return true;
    }

    /** A mispredicted control transfer resolved: in-flight front-end
     *  validation state flushes. */
    virtual void onMispredictResolved(Cycle resolve_cycle)
    {
        (void)resolve_cycle;
    }

    /** An external interrupt was taken (after the current block
     *  validated, Sec. IV.A). */
    virtual void onInterrupt(Cycle cycle) { (void)cycle; }

    /** A SYSCALL committed (services 1/2 disable/enable validation,
     *  Sec. VII). */
    virtual void onSyscall(u8 service, Cycle commit_cycle)
    {
        (void)service;
        (void)commit_cycle;
    }

    /** True while validation is active (stores defer until BB
     *  validation). */
    virtual bool validationActive() const { return false; }

    /** Human-readable reason of the most recent validation failure. */
    virtual std::string violationReason() const { return {}; }

    // --- prover-side measurement (the attestation split, stream.hpp) ----

    /**
     * Report every measured event to @p sink as a serialized session
     * (header first, then one Block record per block reaching
     * commit-time validation). The null-object default ignores the sink:
     * a backend that measures nothing has no session to emit. @p sink
     * must outlive the validator (or a later attach of nullptr).
     */
    virtual void attachMeasurementSink(MeasurementSink *sink)
    {
        (void)sink;
    }

    /**
     * The run completed: emit the End record closing the session.
     * Idempotent; a no-op when no sink is attached.
     */
    virtual void sealMeasurement() {}

    // --- snapshot fork / restore ----------------------------------------

    /**
     * Capture the backend's complete mid-run state for a snapshot fork.
     * Deliberately excluded: the measurement sink and trace callback (a
     * restored validator reports to whatever its own harness attached —
     * campaign forks attach none) and the construction-time bindings
     * (store, vault, memory, memory system), which the restoring
     * validator already owns fork-side.
     */
    virtual std::unique_ptr<ValidatorSnapshot>
    saveSnapshot() const
    {
        return std::make_unique<ValidatorSnapshot>();
    }

    /**
     * Adopt state captured by saveSnapshot() on a validator of the same
     * backend and configuration whose memory image this validator's is a
     * fork of. After the restore, this validator answers every hook
     * exactly as the source would have from the pause point.
     */
    virtual void restoreSnapshot(const ValidatorSnapshot &snap)
    {
        (void)snap;
    }

    // --- harness-facing maintenance -------------------------------------

    /** Code space was modified externally: drop memoized digests. */
    virtual void invalidateCodeCache() {}

    /** The trusted OS/linker rebuilt the reference data (dynamic code
     *  generation or dynamic linking, Sec. IV.E). */
    virtual void refreshTables() {}

    /** The backend-independent counter slice. */
    virtual ValidationStats commonStats() const { return {}; }

    /** Zero the counters but keep warmed state. */
    virtual void resetStats() {}

    /** Contribute component counters (caches, hash pipes) to @p group. */
    virtual void addStats(stats::StatGroup &group) const { (void)group; }

    /**
     * Append the backend's summary rows to @p set as
     * "<prefix>.<backend>.<counter>" entries.
     */
    virtual void
    snapshotStats(stats::StatSet &set, const std::string &prefix) const
    {
        (void)set;
        (void)prefix;
    }
};

/**
 * The base case: no validation. Every default of the null-object base is
 * already correct; the distinct type exists so base-case runs are
 * explicit in the registry and in stats.
 */
class NullValidator final : public Validator
{
  public:
    Backend kind() const override { return Backend::Null; }
};

} // namespace rev::validate

#endif // REV_VALIDATE_VALIDATOR_HPP
