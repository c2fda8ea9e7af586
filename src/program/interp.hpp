/**
 * @file
 * Functional RVX machine: architectural registers, PC, and instruction
 * semantics over a SparseMemory image.
 *
 * Used three ways:
 *  - as the reference interpreter in tests,
 *  - by the profiler to discover computed-branch targets (Sec. IV.D),
 *  - embedded in the cycle-level core as the in-order oracle that supplies
 *    values and actual branch outcomes to the timing model.
 *
 * Stores may be redirected into a StoreBuffer instead of memory; this is
 * how the pipeline defers memory updates until REV validates the basic
 * block (Requirement R5). Loads transparently forward from the buffer.
 *
 * Instruction fetch goes through a DecodeCache: per-code-page arrays of
 * decoded instructions plus precomputed register usage, validated against
 * the page's write-version counter so that any store landing on a cached
 * code page (the machine's own stores, attack injectors, reloadProgram())
 * transparently forces a re-decode of the fresh bytes. The decoded arrays
 * belong to the copy-on-write page itself (a PageAnnex), so every machine
 * over a memory sharing the page — snapshot forks, sweep jobs forked from
 * one image — shares its decodes. The cache is purely a functional-layer
 * speedup — decode results are byte-exact and timing statistics are
 * computed identically with or without it. Every step() fetches one
 * instruction through the cache and executes it (docs/INTERNALS.md §11
 * has the measurements behind a single path).
 */

#ifndef REV_PROGRAM_INTERP_HPP
#define REV_PROGRAM_INTERP_HPP

#include <array>
#include <atomic>
#include <vector>

#include "common/flat_map.hpp"
#include "common/sparse_memory.hpp"
#include "isa/instr.hpp"
#include "isa/reguse.hpp"
#include "program/program.hpp"

namespace rev::prog
{

class TraceRecorder;
class TraceReplayer;

/**
 * Pending (not yet validated) stores, in program order. Loads forward from
 * the newest pending store per byte; drain() releases the oldest stores to
 * memory once their basic block has been authenticated.
 *
 * The queue is the whole structure: forwarding scans it newest-first. It
 * holds at most one block's stores (SplitLimits::maxStores under REV, one
 * store on the base core), so the scan is a handful of compares, and a
 * push or drain touches no heap once the vector has grown.
 */
class StoreBuffer
{
  public:
    /** Queue a store of the low @p size bytes of @p value at @p addr. */
    void push(SeqNum seq, Addr addr, u64 value, unsigned size = 8);

    /** Read one byte as the machine would see it (buffer else memory). */
    u8 readByte(const SparseMemory &mem, Addr addr) const;

    /** True if any byte of the @p size-byte word at @p addr has a pending
     *  store (the load would forward from the store queue). */
    bool covers(Addr addr, unsigned size = 8) const;

    /** Little-endian read of @p size (1..8) bytes with forwarding. */
    u64 read(const SparseMemory &mem, Addr addr, unsigned size) const;

    /** Read a 64-bit value with forwarding. */
    u64 read64(const SparseMemory &mem, Addr addr) const
    {
        return read(mem, addr, 8);
    }

    /** Release all stores with seq <= @p upTo into @p mem, oldest first. */
    void drain(SparseMemory &mem, SeqNum upTo);

    /** Discard all stores with seq >= @p from (squash on violation). */
    void squash(SeqNum from);

    std::size_t size() const { return queue_.size(); }
    bool empty() const { return queue_.empty(); }

    /** Sequence number of the oldest pending store (0 if none). */
    SeqNum oldestSeq() const { return queue_.empty() ? 0 : queue_.front().seq; }

    /** Sequence number of the newest pending store covering any byte of
     *  the @p size-byte access at @p addr (0 when covers() is false). */
    SeqNum newestCoverSeq(Addr addr, unsigned size = 8) const;

  private:
    struct Pending
    {
        SeqNum seq;
        Addr addr;
        u64 value;
        unsigned size;

        bool
        overlaps(Addr a, unsigned n) const
        {
            return a < addr + size && addr < a + n;
        }
    };

    /** The newest pending store overlapping [addr, addr + size), or
     *  nullptr. */
    const Pending *newestOverlap(Addr addr, unsigned size) const;

    void resetBounds();

    std::vector<Pending> queue_; ///< oldest first

    // Conservative address bounds of the pending bytes: a load outside
    // them skips the queue scan with two compares. Bounds only grow while
    // stores are pending and reset when the buffer empties; staleness is
    // a missed fast path, never a wrong answer.
    Addr boundLo_ = kNoAddr;
    Addr boundHi_ = 0; ///< one past the highest pending byte
};

/** One predecoded static instruction. */
struct Predecoded
{
    isa::Instr ins;
    u8 len = 0;      ///< encoded length in bytes
    isa::RegUse use; ///< precomputed register operands
};

/**
 * Decoded instructions of one code page, owned by the copy-on-write page
 * object (SparseMemory::annexOf()) and so shared by every memory sharing
 * it. A decode is a pure function of the page's bytes, which cannot
 * change while the page is shared; a write clones the page (the clone
 * starts empty) or, by the only owner, drops this annex. Slots fill
 * lazily from any number of threads: a filler claims a slot (kBusy),
 * writes it, then publishes it with a release store of kValid.
 */
struct DecodedPage final : PageAnnex
{
    enum : u8
    {
        kUnknown = 0,
        kBusy = 1,    ///< being filled by some thread
        kValid = 2,
        kInvalid = 3, ///< bytes at this offset do not decode
    };

    /** Storage for one slot; meaningful only once its state is kValid. */
    union Slot
    {
        Slot() {}
        Predecoded pd;
    };

    std::array<std::atomic<u8>, SparseMemory::kPageSize> state{};
    std::array<Slot, SparseMemory::kPageSize> slots;
};

/**
 * One machine's view of the decoded code pages it fetches from, keyed by
 * PC and validated against SparseMemory page versions (plus the memory
 * epoch for wholesale page-set replacement, e.g. the page-shadowing
 * rollback). The decoded slots live in each page's DecodedPage; this
 * cache only remembers which page object (and version) it last saw.
 * Entries whose bytes spill into the next page are decoded on demand and
 * never cached, so a write to *any* byte of an instruction always
 * invalidates it.
 */
class DecodeCache
{
  public:
    /**
     * Decoded instruction at @p pc, or nullptr when the bytes do not
     * decode. The pointer is valid until the next lookup(), clear(), or
     * write to @p mem.
     */
    const Predecoded *
    lookup(const SparseMemory &mem, Addr pc)
    {
        // Inline as far as a decoded slot of an unchanged page; a page
        // switch, a stale page view and a decode go out of line.
        const u64 page_no = pc >> SparseMemory::kPageShift;
        const u64 off = pc & (SparseMemory::kPageSize - 1);
        CodePage &cp = page_no == lastPageNo_ && mem.epoch() == memEpoch_
                           ? *lastPage_
                           : switchPage(mem, page_no);
        // Revalidate against the live page version: any write to the
        // page since the last visit may have replaced the page object (a
        // COW clone) or dropped its decodes, so re-fetch both. An
        // unpopulated page is re-fetched on every visit (a write may
        // have created it).
        if (!cp.view.version || *cp.view.version != cp.version)
            refresh(mem, cp, page_no);
        if (DecodedPage *dp = cp.decoded) {
            switch (dp->state[off].load(std::memory_order_acquire)) {
              case DecodedPage::kValid:
                return &dp->slots[off].pd;
              case DecodedPage::kInvalid:
                return nullptr;
              default:
                break;
            }
        }
        return decodeSlot(mem, pc, cp);
    }

    /** Drop everything (tests / explicit resets). */
    void clear();

    /** Every page number the decoder has read deciding bytes from since
     *  the last clear() (includes spill pages of page-crossing
     *  instructions). Input to the trace recorder's SMC verdict. */
    std::vector<u64> touchedPages() const;

  private:
    struct CodePage
    {
        u64 version = 0;             ///< page version decoded is good for
        SparseMemory::PageView view; ///< live version pointer for revalidation
        DecodedPage *decoded = nullptr; ///< null while the page is unpopulated
    };

    /** The entry for @p page_no when it is not the page fetched last. */
    CodePage &switchPage(const SparseMemory &mem, u64 page_no);
    /** Re-fetch @p cp's page view and decoded page from @p mem. */
    static void refresh(const SparseMemory &mem, CodePage &cp, u64 page_no);
    /** Decode at @p pc, whose slot in @p cp is not decoded yet. */
    const Predecoded *decodeSlot(const SparseMemory &mem, Addr pc,
                                 CodePage &cp);

    FlatMap<u64, CodePage> pages_;
    std::vector<u64> pageOrder_; ///< keys of pages_, in first-visit order
    u64 lastPageNo_ = kNoAddr;
    CodePage *lastPage_ = nullptr;
    u64 memEpoch_ = ~u64{0};
    /** Uncached result: page-crossing, unpopulated page, or a slot
     *  another thread was filling. */
    Predecoded scratch_;
    std::vector<u64> spanPages_; ///< spill pages of page-crossing instrs
};

/**
 * Result of executing one instruction.
 */
struct ExecRecord
{
    Addr pc = 0;
    isa::Instr ins;
    isa::RegUse use; ///< register operands (from the decode cache)
    Addr nextPc = 0;
    bool taken = false;   ///< conditional branch outcome
    bool isLoad = false;  ///< load or RET pop
    bool isStore = false; ///< store or CALL push
    Addr memAddr = 0;
    unsigned memSize = 8; ///< access width in bytes
    u64 storeValue = 0;
    u64 loadValue = 0;
    u64 coverDist = 0; ///< seq - covering store seq when the load forwarded
                       ///< from the store queue (0 otherwise)
    bool halted = false;
    bool invalid = false; ///< undecodable bytes at pc
    u8 syscallNo = 0;
    bool isSyscall = false;
};

/**
 * The architectural machine.
 */
class Machine
{
  public:
    /** Construct with PC at the program entry and SP at the stack top. */
    Machine(const Program &program, SparseMemory &mem);

    /**
     * A fork of @p source's architectural state (registers, PC, halt
     * flag) over @p mem, a fork of its memory image. The decode cache
     * starts empty (its contents are architecturally invisible) and no
     * recorder or replayer is attached.
     */
    Machine(const Machine &source, SparseMemory &mem)
        : regs_(source.regs_), pc_(source.pc_), halted_(source.halted_),
          mem_(mem)
    {
    }

    /**
     * Execute the instruction at the current PC. If @p sb is non-null,
     * stores go to the buffer (tagged @p seq) instead of memory, and loads
     * forward from it.
     */
    ExecRecord step(StoreBuffer *sb = nullptr, SeqNum seq = 0);

    /**
     * Decode (through the cache) the instruction at @p pc without
     * executing it; nullptr when the bytes do not decode. Used by the
     * core's wrong-path fetch modeling.
     */
    const Predecoded *predecode(Addr pc) { return dcache_.lookup(mem_, pc); }

    u64 reg(unsigned idx) const { return regs_[idx]; }
    void setReg(unsigned idx, u64 v) { if (idx != 0) regs_[idx] = v; }

    Addr pc() const { return pc_; }
    void setPc(Addr pc) { pc_ = pc; halted_ = false; }

    bool halted() const { return halted_; }

    SparseMemory &memory() { return mem_; }
    const SparseMemory &memory() const { return mem_; }

    /** Attach a recorder: every committed step() is appended to it. */
    void attachRecorder(TraceRecorder *rec) { recorder_ = rec; }

    /**
     * Attach a replayer: step() re-derives each ExecRecord from the trace
     * plus the decode cache instead of executing semantics. Registers and
     * data memory are NOT maintained while replaying; only the fields the
     * timing model consumes are populated.
     */
    void attachReplayer(TraceReplayer *rep) { replayer_ = rep; }

    /** Abandon replay (e.g. a PreStepHook wants to mutate state). Only
     *  legal before the first replayed step — see Core::run(). */
    void cancelReplay() { replayer_ = nullptr; }

    bool replaying() const { return replayer_ != nullptr; }

    /** Instructions consumed from the attached replayer (0 if none). */
    u64 replayConsumed() const;

    /** Pages the decoder has read deciding bytes from (trace SMC check). */
    std::vector<u64> decodePages() const { return dcache_.touchedPages(); }

  private:
    /** Re-derive the record at pc_ from the attached trace. */
    ExecRecord replayStep();

    /** Fetch the instruction at pc_ through the decode cache and execute
     *  its semantics. */
    ExecRecord stepDirect(StoreBuffer *sb, SeqNum seq);

    std::array<u64, isa::kNumArchRegs> regs_{};
    Addr pc_;
    bool halted_ = false;
    SparseMemory &mem_;
    DecodeCache dcache_;
    TraceRecorder *recorder_ = nullptr;
    TraceReplayer *replayer_ = nullptr;
};

/**
 * Run @p machine to completion (or @p max_instrs) and return the number of
 * instructions executed. Convenience for tests and the profiler.
 */
u64 runToHalt(Machine &machine, u64 max_instrs = 100'000'000);

} // namespace rev::prog

#endif // REV_PROGRAM_INTERP_HPP
