/**
 * @file
 * The REV backend: orchestrates the CHG, SC, SAG, and RAM table walker to
 * validate every committed basic block (Sec. IV), implementing the
 * Validator interface.
 *
 * Flow per dynamic basic block:
 *  1. Front end fetches the terminator -> onBBFetched():
 *     - SAG matches the module (exception + software refill on miss),
 *     - the CHG digest of the fetched bytes is scheduled (ready H cycles
 *       after fetch),
 *     - the SC is probed; a complete miss walks the encrypted RAM table
 *       through the memory hierarchy (ScFill requests); a partial miss
 *       (entry present, but the needed successor/predecessor address is
 *       not the cached MRU one) walks it too.
 *  2. The terminator may only commit once the digest and the reference
 *     signature are both available -> commitReadyAt().
 *  3. At commit the block is authenticated -> validateBB(): hash match,
 *     computed-target membership, and the delayed return validation of
 *     Sec. V.A (a latch holds the RET address; the following block's entry
 *     lists the legitimate RET predecessors) or the shadow stack. These
 *     checks are verdict::RevRule (verdict.hpp), the rule the
 *     StreamVerifier applies too; this class adds the timing and the
 *     shadow stack's spill traffic.
 *
 * Memory updates of a block are withheld (by the core's StoreBuffer) until
 * validateBB() passes — a failed block never taints memory (R5).
 */

#ifndef REV_VALIDATE_REV_VALIDATOR_HPP
#define REV_VALIDATE_REV_VALIDATOR_HPP

#include <array>
#include <functional>
#include <memory>
#include <utility>

#include "mem/memsys.hpp"
#include "sig/sigstore.hpp"
#include "validate/chg.hpp"
#include "validate/sag.hpp"
#include "validate/sc.hpp"
#include "validate/source.hpp"
#include "validate/validator.hpp"
#include "validate/verdict.hpp"

namespace rev::validate
{

/** REV engine configuration. */
struct RevConfig
{
    ScConfig sc;
    ChgConfig chg;
    unsigned sagEntries = 16;
    Cycle sagMissPenalty = 200;  ///< software handler refill cost
    unsigned decryptLatency = 2; ///< per-fill AES-CTR pipe latency
    bool startEnabled = true;

    ReturnValidation returnValidation = ReturnValidation::DelayedPredecessor;
    unsigned shadowStackEntries = 32;   ///< on-chip depth before spilling
    Cycle shadowSpillPenalty = 12;      ///< per spill/refill batch
};

/** Engine statistics (drive Figs. 10/11 and the stall accounting). The
 *  backend-independent slice (bbValidated, violations, commitStallCycles)
 *  is inherited from ValidationStats. */
struct RevStats : ValidationStats
{
    u64 scCompleteMisses = 0;
    u64 scPartialMisses = 0;
    u64 tableWalkReads = 0;
    u64 sagExceptions = 0;
    u64 shadowSpills = 0;   ///< shadow-stack overflow spill batches
    u64 shadowRefills = 0;  ///< shadow-stack underflow refill batches

    u64
    scMisses() const
    {
        return scCompleteMisses + scPartialMisses;
    }
};

/**
 * The run-time execution validator.
 */
class RevValidator final : public Validator
{
  public:
    /**
     * @param store  Signature tables (already loaded into @p mem).
     * @param vault  CPU key vault for unwrapping module keys.
     * @param mem    Functional memory (holds code and the tables).
     * @param memsys  Timing hierarchy for SC fill traffic.
     * @param core_id Memory-system port the SC fills issue through.
     * @param from   When non-null, a saveSnapshot() capture of a REV
     *               validator of the same configuration over a memory
     *               @p mem is a fork of: this validator continues from
     *               it (moving its contents out).
     */
    RevValidator(const sig::SigStore &store, const crypto::KeyVault &vault,
                 const SparseMemory &mem, mem::MemorySystem &memsys,
                 const RevConfig &cfg = {}, unsigned core_id = 0,
                 ValidatorSnapshot *from = nullptr);

    // --- Validator --------------------------------------------------------
    Backend kind() const override { return Backend::Rev; }
    void onBBFetched(const BBFetchInfo &info) override;
    Cycle commitReadyAt(BBSeq bb, Cycle earliest) override;
    bool validateBB(BBSeq bb, Addr actual_target,
                    Cycle commit_cycle) override;
    void onMispredictResolved(Cycle resolve_cycle) override;
    void onInterrupt(Cycle cycle) override;
    void onSyscall(u8 service, Cycle commit_cycle) override;
    bool validationActive() const override { return enabled_; }
    std::string violationReason() const override { return lastViolation_; }
    void attachMeasurementSink(MeasurementSink *sink) override;
    void sealMeasurement() override { source_.seal(); }
    std::unique_ptr<ValidatorSnapshot> saveSnapshot() const override;

    /** Attacks that modify code space must invalidate memoized digests. */
    void invalidateCodeCache() override { chg_.invalidate(); }

    /**
     * The trusted OS/linker rebuilt the signature tables (dynamic code
     * generation or dynamic linking, Sec. IV.E): drop every cached
     * decrypted signature and re-initialize the SAG from the store.
     */
    void refreshTables() override;

    ValidationStats commonStats() const override { return stats_; }

    /** Zero the engine counters but keep SC/SAG/latch state. */
    void resetStats() override { stats_ = RevStats{}; }

    void addStats(stats::StatGroup &group) const override;
    void snapshotStats(stats::StatSet &set,
                       const std::string &prefix) const override;

    // --- REV-specific surface ---------------------------------------------

    /**
     * Per-thread REV micro-state the OS saves/restores across context
     * switches: the Sec. V.A return latch and (when the shadow-stack
     * scheme is selected) the shadow call stack itself. Everything else
     * (SC, CHG, readers) is shared and refills on demand (R4).
     */
    struct ThreadState : verdict::RevReturnState
    {
        u64 shadowSpilled = 0;
    };

    ThreadState saveThreadState() const;
    void restoreThreadState(const ThreadState &state);

    /** One authenticated (or rejected) basic block, for tracing. */
    struct ValidationEvent
    {
        BBSeq bbSeq = 0;
        Addr start = 0;
        Addr term = 0;
        Cycle commitCycle = 0;
        u32 hash = 0;
        bool scHit = false;        ///< no RAM walk was needed
        bool partialMiss = false;
        Cycle stallCycles = 0;     ///< commit delay charged to REV
        bool passed = false;
        std::string reason;        ///< failure reason when !passed
    };

    using TraceCallback = std::function<void(const ValidationEvent &)>;

    /** Stream every validation outcome to @p cb (empty = off). */
    void setTraceCallback(TraceCallback cb) { trace_ = std::move(cb); }

    /**
     * Signature of code that failed authentication (the paper's
     * conclusion: "failed validation attempts can reveal signatures of
     * the offending code that can be used to detect them later").
     */
    struct OffenderRecord
    {
        Addr start = 0;
        Addr term = 0;
        u32 hash = 0; ///< CHG digest of the offending bytes
        std::string reason;
    };

    /** Signatures collected from failed validations this run. */
    const std::vector<OffenderRecord> &offenders() const
    {
        return offenders_;
    }

    const RevStats &stats() const { return stats_; }
    const SignatureCache &sc() const { return sc_; }
    const Sag &sag() const { return sag_; }
    const Chg &chg() const { return chg_; }
    sig::ValidationMode mode() const { return store_.mode(); }

  private:
    /** Full mid-run state capture (defined in rev_validator.cpp). */
    struct Snapshot;

    /** The public constructor, with @p from already cast. */
    RevValidator(const sig::SigStore &store, const crypto::KeyVault &vault,
                 const SparseMemory &mem, mem::MemorySystem &memsys,
                 const RevConfig &cfg, unsigned core_id, Snapshot *from);

    /** The per-block fields of a PendingBB that are plain values. */
    struct BlockState
    {
        bool valid = false;
        bool bypass = false; ///< REV disabled or no validation needed
        BBFetchInfo info;
        Cycle hashReadyAt = 0;
        Cycle scReadyAt = 0;
        u32 computedHash = 0;
        /** Digest computed at fetch, read again where consumed. */
        bool hashPending = false;
        bool refFound = false;
        bool termSeen = false; ///< terminator present, hash mismatched
        u32 refHash = 0;

        bool scHit = false;
        bool partialMiss = false;
        Cycle stall = 0;
    };

    /**
     * In-flight state of a basic block between fetch and commit — one
     * slot of the inflight ring. Per-block trace bookkeeping (scHit,
     * partialMiss, stall) rides in the slot so the fetch- and commit-side
     * hooks agree on which dynamic block they describe.
     */
    struct PendingBB : BlockState
    {
        std::vector<Addr> refTargets;
        std::vector<Addr> refPreds;

        /** Back to the default state, keeping the capacity of the
         *  reference lists. */
        void
        reset()
        {
            static_cast<BlockState &>(*this) = BlockState{};
            refTargets.clear();
            refPreds.clear();
        }
    };

    /**
     * Inflight ring capacity. The commit-gated core keeps exactly one
     * block between onBBFetched() and validateBB(), but the ring is
     * keyed by BBSeq so a deeper front end could keep several in flight;
     * a power of two turns the slot lookup into a mask.
     */
    static constexpr std::size_t kInflightSlots = 4;
    static_assert((kInflightSlots & (kInflightSlots - 1)) == 0,
                  "ring indexing requires a power-of-two slot count");

    PendingBB &
    slotFor(BBSeq bb)
    {
        return ring_[static_cast<std::size_t>(bb) & (kInflightSlots - 1)];
    }

    /** The ring slot currently holding @p bb, or nullptr. */
    PendingBB *
    find(BBSeq bb)
    {
        PendingBB &slot = slotFor(bb);
        return slot.valid && slot.info.bbSeq == bb ? &slot : nullptr;
    }

    /** Install module signature-table anchors until the SAG is full,
     *  counting only modules actually installed. */
    void preloadSag();

    const sig::TableReader &readerFor(Addr table_base);

    /**
     * Walk the RAM table; returns the reference data and sets ready.
     * @param key For Full/Aggressive tables the generated hash (the
     *            Sec. V.B discriminator); ignored for CFI-only.
     */
    /** Read the fetch-time digest (a CHG memo hit unless a store landed
     *  on the block's pages since fetch). */
    void
    resolveHash(PendingBB &cur)
    {
        if (!cur.hashPending)
            return;
        cur.computedHash =
            chg_.digest(cur.info.start, cur.info.term, cur.info.end);
        cur.hashPending = false;
    }

    sig::LookupResult walk(const SagEntry &sag_entry, Addr term, u32 key,
                           Cycle from, Cycle &ready_at,
                           const sig::WalkNeeds &needs);

    /** Charge the shadow-stack spill or refill that the commit rule's
     *  push or pop (from @p depth_before frames) crossed. */
    void chargeShadowTraffic(std::size_t depth_before, Cycle commit_cycle);

    const sig::SigStore &store_;
    const crypto::KeyVault &vault_;
    const SparseMemory &mem_;
    mem::MemorySystem &memsys_;
    unsigned coreId_ = 0;
    RevConfig cfg_;

    SignatureCache sc_;
    Sag sag_;
    Chg chg_;

    const verdict::RevRule rule_; ///< the commit rule (shared, verdict.hpp)

    bool enabled_;
    std::array<PendingBB, kInflightSlots> ring_;

    /** The return latch and the shadow call stack the rule advances. */
    verdict::RevReturnState returns_;

    /**
     * Shadow-stack spill accounting (ReturnValidation::ShadowStack). The
     * on-chip portion holds cfg_.shadowStackEntries; deeper frames live
     * in a (modeled) memory spill area. shadowSpilled_ counts frames
     * currently in memory; crossings charge shadowSpillPenalty at the
     * next commit.
     */
    u64 shadowSpilled_ = 0;
    Cycle shadowPenaltyAt_ = 0;

    std::string lastViolation_;
    RevStats stats_;
    TraceCallback trace_;
    std::vector<OffenderRecord> offenders_;
    MeasurementSource source_; ///< prover-side session emitter (stream.hpp)

    /**
     * Per-table decrypt/walk state, keyed by table base. Programs link a
     * handful of modules at most, so a flat vector with linear search
     * beats a node-based map on the hot lookup path.
     */
    std::vector<std::pair<Addr, std::unique_ptr<sig::TableReader>>> readers_;
};

} // namespace rev::validate

#endif // REV_VALIDATE_REV_VALIDATOR_HPP
