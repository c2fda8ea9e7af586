/**
 * @file
 * LO-FAT-style control-flow attestation backend (Dessouky et al., DAC'17,
 * adapted to this machine model).
 *
 * Where REV authenticates each basic block against an encrypted reference
 * signature before it may commit, LO-FAT *measures*: every committed
 * control-flow event — (block entry, terminator, code digest, taken edge)
 * — is folded into a running CubeHash chain, and the chain records are
 * staged in a bounded on-chip measurement buffer that spills to a
 * dedicated memory region when full. A remote verifier replays the
 * program's CFG against the reported chain. We model the verifier's CFG
 * check eagerly at commit time (the simulator holds the reference CFGs
 * the toolchain derived), so illegal edges and unattested code raise
 * violations with the same gating semantics as REV; pure in-place code
 * substitution only skews the chain — a *remote* check this model does
 * not adjudicate — so it is outside this backend's claimed coverage
 * (see coverage.hpp).
 *
 * The hash pipe reuses the CHG (same CubeHash parameters and pipeline
 * latency), and spill traffic is charged through the memory hierarchy's
 * ScFill class, so REV-vs-LO-FAT comparisons share one cost model.
 */

#ifndef REV_VALIDATE_LOFAT_VALIDATOR_HPP
#define REV_VALIDATE_LOFAT_VALIDATOR_HPP

#include "crypto/cubehash.hpp"
#include "mem/memsys.hpp"
#include "sig/sigstore.hpp"
#include "validate/chg.hpp"
#include "validate/source.hpp"
#include "validate/validator.hpp"

namespace rev::validate
{

/** RAM region the measurement buffer spills to (between the signature
 *  tables at 0x20000000 and the DMA buffers at 0x30000000). */
inline constexpr Addr kMeasurementRegion = 0x28000000;

/** LO-FAT backend parameters. */
struct LoFatConfig
{
    unsigned bufferEntries = 64; ///< on-chip measurement records
    unsigned entryBytes = 16;    ///< bytes per spilled record
    ChgConfig chg;               ///< shared hash-pipe parameters
    bool startEnabled = true;
};

/** LO-FAT counters; the backend-independent slice is inherited. */
struct LoFatStats : ValidationStats
{
    u64 chainUpdates = 0;      ///< events folded into the hash chain
    u64 bufferSpills = 0;      ///< full-buffer drain batches
    u64 spillBytes = 0;        ///< measurement bytes written to memory
    u64 unattestedBlocks = 0;  ///< events from code outside every module
    u64 edgeViolations = 0;    ///< edges absent from the attested CFG
};

/**
 * The measurement engine + eager verifier.
 */
class LoFatValidator final : public Validator
{
  public:
    /**
     * @param store  Reference CFGs (the same store the toolchain built;
     *               its tables are not read — only the CFGs).
     * @param mem    Functional memory (the CHG hashes fetched bytes).
     * @param memsys  Timing hierarchy for measurement spill traffic.
     * @param core_id Memory-system port the spills issue through.
     */
    LoFatValidator(const sig::SigStore &store, const SparseMemory &mem,
                   mem::MemorySystem &memsys, const LoFatConfig &cfg = {},
                   unsigned core_id = 0);

    // --- Validator --------------------------------------------------------
    Backend kind() const override { return Backend::LoFat; }
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
    void sealMeasurement() override { source_.seal(chain_); }
    std::unique_ptr<Validator>
    fork(const BackendContext &ctx) const override;
    void invalidateCodeCache() override { chg_.invalidate(); }
    void refreshTables() override { chg_.invalidate(); }
    ValidationStats commonStats() const override { return stats_; }
    void resetStats() override { stats_ = LoFatStats{}; }
    void addStats(stats::StatGroup &group) const override;
    void snapshotStats(stats::StatSet &set,
                       const std::string &prefix) const override;

    // --- LO-FAT-specific surface ------------------------------------------

    const LoFatStats &stats() const { return stats_; }

    /** The running measurement chain (what a verifier would receive). */
    const crypto::Digest &chain() const { return chain_; }

    /** Records currently staged in the on-chip buffer. */
    unsigned bufferUsed() const { return bufferUsed_; }

  private:
    /** Fork constructor — see fork(). */
    LoFatValidator(const LoFatValidator &source, const BackendContext &ctx);

    struct PendingBB
    {
        bool valid = false;
        bool bypass = false;
        BBFetchInfo info;
        u32 codeDigest = 0;
        /** Digest computed at fetch, read again at validate. */
        bool hashPending = false;
        Cycle hashReadyAt = 0;
    };

    /** Drain the full buffer through the memory hierarchy. */
    void spill(Cycle from);

    const sig::SigStore &store_;
    mem::MemorySystem &memsys_;
    unsigned coreId_ = 0;
    LoFatConfig cfg_;
    Chg chg_;

    bool enabled_;
    PendingBB cur_;
    crypto::Digest chain_{};
    unsigned bufferUsed_ = 0;
    Addr spillCursor_ = kMeasurementRegion;
    Cycle drainReadyAt_ = 0;
    std::string lastViolation_;
    LoFatStats stats_;
    MeasurementSource source_; ///< prover-side session emitter (stream.hpp)
};

} // namespace rev::validate

#endif // REV_VALIDATE_LOFAT_VALIDATOR_HPP
