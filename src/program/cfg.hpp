/**
 * @file
 * Static control-flow analysis of a module: the reference CFG from which
 * signature tables are built (Sec. IV.A, IV.D, V).
 *
 * REV identifies a basic block (BB) by the address of the control-flow
 * instruction that terminates it. The hardware hashes the byte stream from
 * the dynamic entry point up to and including the terminator, so when
 * control can enter a straight-line run in the middle (a branch into the
 * body), each distinct entry point yields its own validation unit: a BB
 * with the same terminator but a different start and hash. The table
 * formats of Sec. V discriminate such entries via tags; we model them as
 * separate BasicBlock records sharing a terminator address.
 *
 * Very long straight-line runs are split artificially, bounding the number
 * of instructions or stores per BB (whichever limit is hit first), so the
 * post-commit ROB/store-queue extensions stay finite (Sec. IV.A).
 */

#ifndef REV_PROGRAM_CFG_HPP
#define REV_PROGRAM_CFG_HPP

#include <span>
#include <vector>

#include "program/module.hpp"

namespace rev::prog
{

/** What terminates a basic block. */
enum class TermKind : u8
{
    Branch,       ///< conditional PC-relative branch: {target, fallthrough}
    Jump,         ///< direct jump: {target}
    Call,         ///< direct call: {callee entry}
    CallIndirect, ///< computed call: annotated target set
    JumpIndirect, ///< computed jump: annotated target set
    Return,       ///< return: statically derived return-site set
    Halt,         ///< no successor
    Split,        ///< artificial boundary: {fallthrough}
};

/** True iff the terminator's target is computed at run time. */
inline bool
termIsComputed(TermKind k)
{
    return k == TermKind::CallIndirect || k == TermKind::JumpIndirect;
}

/** A run of addresses in one of a Cfg's edge arrays. */
struct EdgeSpan
{
    u32 begin = 0;
    u32 count = 0;
};

/**
 * One validation unit: entry point -> terminating control-flow
 * instruction. A plain value: its edge lists live in the owning Cfg and
 * are read through Cfg::succs() and Cfg::retPreds().
 */
struct BasicBlock
{
    Addr start = 0; ///< address of the first instruction
    Addr term = 0;  ///< address of the terminating instruction (BB identity)
    Addr end = 0;   ///< first byte past the terminator (fall-through addr)

    u32 id = 0;
    u32 numInstrs = 0;
    u32 numStores = 0; ///< memory-writing instructions (ST and CALL*)

    TermKind kind = TermKind::Halt;

    /** Successor list: in the Cfg's return-edge array for a Return
     *  block, else in its successor array. */
    EdgeSpan succSpan;
    /** Return-predecessor list, in the Cfg's return-edge array. */
    EdgeSpan retPredSpan;

    u64 sizeBytes() const { return end - start; }
};

static_assert(sizeof(BasicBlock) <= 56,
              "a block is a small value; its edge lists live in the Cfg");

/** Artificial-split thresholds (Sec. IV.A). */
struct SplitLimits
{
    unsigned maxInstrs = 48;
    unsigned maxStores = 8;

    bool operator==(const SplitLimits &) const = default;
};

/** Aggregate statistics reported in Sec. VIII. */
struct CfgStats
{
    u64 numBlocks = 0;
    u64 numTerminators = 0; ///< distinct terminator addresses
    double avgInstrsPerBlock = 0.0;
    double avgSuccsPerBlock = 0.0;
    u64 numComputedSites = 0; ///< CALLR/JMPR instruction count
    u64 numBranchInstrs = 0;  ///< static control-flow instruction count
};

/**
 * The reference CFG of one module.
 *
 * Block lookups index the module's contiguous code region by offset: one
 * bit per code byte marks block starts (and, separately, terminators),
 * and a running count per 64-bit bitmap word turns a marked offset into
 * its rank, so both lookups are O(1) and allocation-free. Edge lists sit
 * back to back in two flat arrays, one for the successors derived from
 * the code and one for the return edges linkCfgs() resolves.
 */
class Cfg
{
  public:
    const std::vector<BasicBlock> &blocks() const { return blocks_; }

    /**
     * Start addresses of the possible successor blocks of @p bb, a block
     * of this CFG. Every block ending at one terminator shares one list.
     * A view into the CFG, valid while the Cfg lives and until the next
     * linkCfgs() over it.
     */
    std::span<const Addr>
    succs(const BasicBlock &bb) const
    {
        const std::vector<Addr> &a =
            bb.kind == TermKind::Return ? retEdges_ : succs_;
        return {a.data() + bb.succSpan.begin, bb.succSpan.count};
    }

    /**
     * For a block whose start can be entered via a return: addresses of
     * the RET instructions that may precede entry (Sec. V.A delayed
     * return validation), in discovery order. Same validity as succs().
     */
    std::span<const Addr>
    retPreds(const BasicBlock &bb) const
    {
        return {retEdges_.data() + bb.retPredSpan.begin,
                bb.retPredSpan.count};
    }

    /** Block whose entry point is @p start; nullptr if not a valid entry. */
    const BasicBlock *blockAtStart(Addr start) const;

    /**
     * Ids (indices into blocks()) of all blocks terminated by the
     * instruction at @p term, ascending; empty if none. A view into the
     * CFG's term index, valid while the Cfg lives.
     */
    std::span<const u32> blocksAtTerm(Addr term) const;

    /** The split limits the analysis used (front end must match them). */
    const SplitLimits &splitLimits() const { return limits_; }

    CfgStats stats() const;

  private:
    friend Cfg deriveCfg(const Module &mod, const SplitLimits &limits);
    friend void linkCfgs(const std::vector<Cfg *> &cfgs);

    /** Rank index over a set of code offsets (see the class comment). */
    class OffsetRank
    {
      public:
        static constexpr u32 kNone = ~u32{0};

        /** Empty set over @p size code bytes. */
        void reset(std::size_t size);
        void set(std::size_t off) { bits_[off >> 6] |= u64{1} << (off & 63); }
        /** Fix the running counts; call once every offset is set. */
        void finalize();
        /** Number of offsets in the set. */
        u32 count() const { return before_.empty() ? 0 : before_.back(); }
        /** Rank of @p off among the set's offsets, or kNone if absent. */
        u32 find(u64 off) const;
        /** True iff every offset set in @p bits (one bit per code byte,
         *  as bits_) is in the set. */
        bool covers(const std::vector<u64> &bits) const;

      private:
        std::vector<u64> bits_;
        std::vector<u32> before_; ///< set bits in words [0, w); one extra
    };

    /** Index of block @p start in blocks_, or OffsetRank::kNone. */
    u32 idAtStart(Addr start) const;
    /** Fill the start and terminator indices from blocks_. */
    void index();

    std::vector<BasicBlock> blocks_;
    /** Successor lists of non-Return terminators, one per terminator,
     *  in terminator order. */
    std::vector<Addr> succs_;
    /** Return successors and return predecessors (linkCfgs()). */
    std::vector<Addr> retEdges_;
    Addr base_ = 0;      ///< module code base
    u64 codeSize_ = 0;   ///< bytes in the code region
    OffsetRank starts_;  ///< offsets where a block starts
    std::vector<u32> startIds_; ///< start rank -> block id
    OffsetRank terms_;   ///< offsets of terminators
    std::vector<u32> termBegin_; ///< term rank -> first slot in termIds_
    std::vector<u32> termIds_;   ///< block ids grouped by terminator
    SplitLimits limits_;
};

/**
 * Derive the reference CFG of @p mod without return-site analysis: RET
 * blocks have no successors and no block has return predecessors until
 * linkCfgs() runs over it (alone, or with every module of its program).
 * The trusted linker derives each module this way and links the whole
 * program once.
 */
Cfg deriveCfg(const Module &mod, const SplitLimits &limits = {});

/**
 * Build the reference CFG of @p mod. The module's code region must decode
 * cleanly end-to-end (the trusted toolchain guarantees this); undecodable
 * code is a fatal error. Computed-transfer sites with no annotated targets
 * are allowed here but will be flagged by the signature builder.
 *
 * Return-site analysis is run for the module in isolation (deriveCfg()
 * plus linkCfgs() over this one CFG); when a program links several
 * modules, derive each and call linkCfgs() over all of them so returns
 * that cross module boundaries resolve (the trusted linker's job,
 * Sec. IV.B).
 */
Cfg buildCfg(const Module &mod, const SplitLimits &limits = {});

/**
 * Program-level return-site analysis: recompute, across all modules, the
 * successor sets of RET-terminated blocks and the RET-predecessor lists of
 * return-site blocks (Sec. V.A). Idempotent; replaces any previous
 * return-edge information.
 */
void linkCfgs(const std::vector<Cfg *> &cfgs);

} // namespace rev::prog

#endif // REV_PROGRAM_CFG_HPP
