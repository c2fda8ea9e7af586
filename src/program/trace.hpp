/**
 * @file
 * Compact binary architectural traces: record the committed-instruction
 * stream of one run once, then replay it into the timing model so other
 * configurations are timed without re-executing semantics.
 *
 * The committed stream of a (program, instruction budget, split limits)
 * triple is identical for every timing configuration — the core is
 * execute-functional, timing-directed — so everything the timing model
 * consumes can be re-derived during replay from the static code plus a
 * small stream of data-dependent events:
 *
 *  - conditional branches: one taken bit,
 *  - loads/stores (incl. CALL push / RET pop): the effective address as a
 *    zigzag varint delta against the previous memory address,
 *  - computed control transfers (RET / JMPR / CALLR): the target as a
 *    zigzag varint delta against the instruction's own PC,
 *  - loads additionally carry a store-forwarding distance (see below).
 *
 * Everything else (opcode, operands, instruction length, fall-through,
 * direct targets, syscall numbers) comes from decoding the unchanged code
 * image through the DecodeCache, exactly as a direct run would.
 *
 * Store forwarding across drain policies: whether a load forwards from
 * the store queue depends on when pending stores drain, which differs
 * between the base core (drains every instruction) and REV (drains at
 * block validation). The recorder must therefore run under a REV
 * configuration — its drain watermark is the lowest of any configuration,
 * so a load that did NOT forward at record time forwards under no
 * configuration. For loads that did, the trace stores the distance
 * (load seq - covering store seq); the replaying core compares it against
 * its own drain watermark to decide forwarding per configuration.
 *
 * Replay applies no stores: nothing in a replayed run reads data memory
 * (load values are architectural, not timing inputs; CHG hashes and table
 * walks touch only code and signature-table pages, which the program never
 * writes). A recording where the program DID write a page the decoder
 * fetched from (self-modifying code) is marked non-replayable, and
 * consumers fall back to direct execution.
 */

#ifndef REV_PROGRAM_TRACE_HPP
#define REV_PROGRAM_TRACE_HPP

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "program/cfg.hpp"
#include "program/interp.hpp"

namespace rev::prog
{

/** Bump when the event encoding or the metadata layout changes. */
inline constexpr u32 kTraceFormatVersion = 1;

/**
 * The REV_TRACE_REPLAY switch shared by every execute-once/time-many
 * consumer (benchmark sweep, redteam campaigns): replay is on unless the
 * variable is set to "0". Read per call — tests toggle it mid-process.
 */
bool replayEnabledFromEnv();

/**
 * One recorded run. Plain data plus (de)serialization; TraceRecorder
 * fills it, any number of concurrent TraceReplayers read it.
 */
struct Trace
{
    u32 formatVersion = kTraceFormatVersion;
    Addr entryPc = 0;
    u64 maxInstrs = 0;      ///< instruction budget of the recorded run
    SplitLimits splitLimits; ///< front-end split limits of the recorded run
    u64 instrCount = 0;      ///< committed instructions recorded

    bool complete = false;     ///< finish() ran (run ended normally)
    bool sawViolation = false; ///< recorded run failed validation
    bool sawInvalid = false;   ///< recorded run hit undecodable bytes
    bool smcDetected = false;  ///< program wrote a decoded-from page

    /**
     * Every page the decoder fetched from, with its write-version at the
     * end of the recorded run (for non-self-modifying traces this equals
     * the post-load version). Replay attachment validates these against
     * the target memory image and falls back to direct execution on any
     * mismatch.
     */
    std::vector<std::pair<u64, u64>> codePages;

    std::vector<u8> bytes; ///< LEB128 varint stream (addresses, distances)
    std::vector<u8> bits;  ///< taken-bit stream, LSB first
    u64 bitCount = 0;

    /** Safe to substitute for direct execution of the same program/budget. */
    bool
    replayable() const
    {
        return complete && !sawViolation && !sawInvalid && !smcDetected &&
               formatVersion == kTraceFormatVersion;
    }

    /** Write to / read back from a file (revsim --record-trace /
     *  --replay-trace). */
    bool save(const std::string &path) const;
    bool load(const std::string &path);
};

/**
 * Captures the event stream of a direct run. Attach to a Machine; the
 * machine calls record() per committed instruction. After the run,
 * finish() derives the self-modifying-code verdict (did any program store
 * land on a page the decoder fetched from?) and snapshots the code-page
 * versions.
 */
class TraceRecorder
{
  public:
    /** Start a fresh recording (called by the Simulator at attach). */
    void begin(Addr entry_pc, u64 max_instrs, const SplitLimits &limits,
               u64 mem_epoch);

    /** Append one executed instruction. @p cover_dist is 0 when the load
     *  did not forward from the store queue, else seq - coveringStoreSeq. */
    void record(const ExecRecord &rec, u64 cover_dist);

    void markInvalid() { trace_.sawInvalid = true; }
    void markViolation() { trace_.sawViolation = true; }

    /** External code mutation (e.g. reloadProgram): never replayable. */
    void markExternalMutation() { trace_.smcDetected = true; }

    /** Seal the trace using the machine's decode-cache page history. */
    void finish(const Machine &machine);

    const Trace &trace() const { return trace_; }
    Trace take() { return std::move(trace_); }

  private:
    void putVarint(u64 v);
    void putZigzag(i64 v);
    void putBit(bool b);

    Trace trace_;
    Addr lastMemAddr_ = 0;
    u64 memEpochAtBegin_ = 0;
    std::unordered_set<u64> storePages_;
};

/**
 * A cursor over one Trace. Each replaying Machine owns its own replayer;
 * the underlying Trace is shared read-only across any number of them.
 * Readers must be called in the canonical per-opcode order (the order
 * record() emitted them): memAddr, coverDist, nextPc; branches read one
 * taken bit.
 */
class TraceReplayer
{
  public:
    explicit TraceReplayer(const Trace &trace) : trace_(&trace) {}

    u64 consumed() const { return idx_; }
    bool exhausted() const { return idx_ >= trace_->instrCount; }

    bool readTaken();
    Addr readMemAddr();
    u64 readCoverDist() { return readVarint(); }
    Addr readNextPc(Addr pc);

    /** Mark the current instruction's events as fully consumed. */
    void advance() { ++idx_; }

  private:
    u64 readVarint();
    i64 readZigzag();

    const Trace *trace_;
    std::size_t byteOff_ = 0;
    u64 bitOff_ = 0;
    u64 idx_ = 0;
    Addr lastMemAddr_ = 0;
};

} // namespace rev::prog

#endif // REV_PROGRAM_TRACE_HPP
