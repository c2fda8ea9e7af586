/**
 * @file
 * StreamVerifier: the verifier-side half of the attestation split.
 *
 * Consumes one measurement session (stream.hpp) incrementally and
 * renders the verdict the in-core backend would have rendered on the
 * same execution — the same Detected/Benign outcome, the same
 * violation-reason string (verdict.hpp), and the same architectural
 * counters (bbValidated, violations; LO-FAT chain/spill counters). The
 * checking rules are the commit-time halves of RevValidator::validateBB
 * and LoFatValidator::validateBB, driven by reference lookups against a
 * module-sharded RefStore instead of the in-core SC/SAG path; the
 * contract test (tests/validate/stream_contract_test.cpp) pins the
 * equivalence across every sweep config.
 *
 * One deliberate difference from the in-core path: the in-core SC
 * authenticates a block once and then trusts its cached reference hash,
 * so a (term, digest) pair that collides with a *different* unit of the
 * same terminator could in principle round-trip differently here. The
 * discriminator is the table's own (termOff, hash) match either way, so
 * the divergence window is a 32-bit collision within one terminator —
 * the same residual the paper accepts for the SC itself.
 *
 * Beyond re-rendering verdicts, the verifier adjudicates the transport:
 * truncated or malformed bytes, block-count or spill-record
 * inconsistencies, and (LO-FAT) divergence of the reported measurement
 * chain from the chain it re-folds from verified blocks all yield
 * Detected with a transport reason. Transport failures do not touch the
 * architectural counters — those mirror inline validation, which cannot
 * experience a transport fault.
 */

#ifndef REV_VALIDATE_STREAM_VERIFIER_HPP
#define REV_VALIDATE_STREAM_VERIFIER_HPP

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "validate/refstore.hpp"
#include "validate/stream.hpp"

namespace rev::validate
{

/**
 * Cross-session dedup of verification work (the verifier service's
 * shared verified-unit cache implements this; src/verifier/unit_cache).
 *
 * Two kinds of work dedup across sessions of the same attested program:
 *  - *unit lookups*: the (term, digest) reference-table walk REV
 *    sessions pay per static validation unit. The result is a pure
 *    function of the RefStore and the key, so a hit skips the
 *    decrypt-and-walk entirely.
 *  - *chain folds*: the LO-FAT measurement-chain link
 *    chain' = H(chain || start || term || target || digest). The fold
 *    is a pure function of (chain, block, rounds); sessions replaying
 *    the same execution share every link, so a hit skips the CubeHash.
 *
 * Either way a hit returns bit-identical bytes to the computation it
 * replaces — dedup on/off may never move a verdict (pinned by
 * tests/verifier/unit_cache_test.cpp). Implementations must be
 * thread-safe: many sessions on many workers share one cache. The
 * RefStore pointer namespaces keys, so one service can multiplex
 * sessions of different attested programs without cross-talk.
 */
class UnitLookupCache
{
  public:
    /** Chain-fold key: everything the fold reads besides the chain. */
    struct FoldKey
    {
        Addr start = 0;
        Addr term = 0;
        Addr target = 0;
        u32 codeDigest = 0;
        u32 hashRounds = 0;
    };

    virtual ~UnitLookupCache() = default;

    virtual bool lookupUnit(const RefStore *ns, Addr term, u32 key,
                            sig::LookupResult *out) const = 0;
    virtual void insertUnit(const RefStore *ns, Addr term, u32 key,
                            const sig::LookupResult &val) = 0;

    virtual bool lookupFold(const crypto::Digest &chain, const FoldKey &key,
                            crypto::Digest *out) const = 0;
    virtual void insertFold(const crypto::Digest &chain, const FoldKey &key,
                            const crypto::Digest &next) = 0;
};

/** What a StreamVerifier renders for one session. */
struct StreamVerdict
{
    bool complete = false; ///< session adjudicated (End seen or hard fail)
    bool detected = false; ///< a violation (or transport fault) was found
    std::string reason;    ///< first violation, inline-identical wording

    u64 blocksSeen = 0; ///< Block records consumed (incl. skipped ones)

    // Architectural counters, bit-identical to the inline backend's.
    u64 bbValidated = 0;
    u64 violations = 0;

    // LO-FAT extras (zero for REV sessions).
    u64 chainUpdates = 0;
    u64 bufferSpills = 0;
    u64 spillBytes = 0;
    u64 unattestedBlocks = 0;
    u64 edgeViolations = 0;
};

/**
 * Incremental verifier for one session. Feed bytes as they arrive;
 * finish() when the prover closes. Single-session, single-threaded —
 * the service (verifier/service.hpp) runs one per session and shards
 * concurrency across sessions.
 */
class StreamVerifier
{
  public:
    /** @param dedup Optional shared verified-unit cache; results are
     *  bit-identical with or without it. Must outlive this verifier. */
    explicit StreamVerifier(const RefStore &refs,
                            UnitLookupCache *dedup = nullptr)
        : refs_(refs), dedup_(dedup)
    {
    }

    /**
     * Append @p n session bytes and process every complete event.
     * @return false once the session is adjudicated (further bytes are
     *         ignored).
     */
    bool feed(const u8 *data, std::size_t n);

    /** The prover closed the stream: adjudicate truncation. */
    void finish();

    bool done() const { return verdict_.complete; }
    const StreamVerdict &verdict() const { return verdict_; }

    /** Session header (valid once headerSeen()). */
    const StreamHeader &header() const { return hdr_; }
    bool headerSeen() const { return haveHeader_; }

    /** Bytes consumed so far (drives the bytes/session report). */
    u64 bytesConsumed() const { return bytesConsumed_; }

    /**
     * The transport layer itself was violated (torn framing, bad length
     * prefix): adjudicate the session as malformed now. No-op once the
     * session is complete.
     */
    void abortMalformed();

    /** Shared-cache dedup accounting for this session. */
    u64 dedupHits() const { return dedupHits_; }
    u64 dedupMisses() const { return dedupMisses_; }

  private:
    void processAvailable();

    /** Batch-resolve reference lookups for every decodable Block whose
     *  (term, digest) is not yet memoized, grouped by shard. */
    void prefetchLookups();

    const sig::LookupResult &resolve(Addr term, u32 digest);

    void handleEvent(const MeasurementEvent &ev);
    void handleBlockRev(const MeasurementEvent &ev);
    void handleBlockLoFat(const MeasurementEvent &ev);
    void handleSpillMark(const MeasurementEvent &ev);
    void handleEnd(const MeasurementEvent &ev);

    /** Render a block-level violation exactly as the inline fail() does. */
    void violation(const MeasurementEvent &ev, const std::string &reason);

    /** Render a transport-level failure (no architectural counterpart). */
    void transportFail(const std::string &reason);

    void foldChain(const MeasurementEvent &ev);

    const RefStore &refs_;
    UnitLookupCache *dedup_ = nullptr; ///< shared cross-session cache
    u64 dedupHits_ = 0;
    u64 dedupMisses_ = 0;

    std::vector<u8> buf_;
    StreamReader reader_;
    u64 bytesConsumed_ = 0;

    bool haveHeader_ = false;
    StreamHeader hdr_;
    StreamVerdict verdict_;

    bool enabled_ = true; ///< tracks the trusted suspend/resume services

    // Memoized reference lookups, keyed by (term, digest). One table
    // walk per static validation unit instead of per dynamic block.
    std::unordered_map<Addr, std::vector<std::pair<u32, sig::LookupResult>>>
        memo_;

    // --- REV session state (mirrors RevValidator) -----------------------
    std::optional<Addr> pendingReturn_;
    std::vector<Addr> shadowStack_;

    // --- LO-FAT session state (mirrors LoFatValidator) ------------------
    crypto::Digest chain_{};
    unsigned bufferUsed_ = 0;
    bool spillPending_ = false;
    u64 expectedSpillBytes_ = 0;
};

} // namespace rev::validate

#endif // REV_VALIDATE_STREAM_VERIFIER_HPP
