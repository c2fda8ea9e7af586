#include "program/cfg.hpp"

#include <algorithm>
#include <bit>

#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "isa/codec.hpp"

namespace rev::prog
{

using isa::Instr;
using isa::InstrClass;

namespace
{

TermKind
termKindOf(InstrClass c)
{
    switch (c) {
      case InstrClass::Branch:
        return TermKind::Branch;
      case InstrClass::Jump:
        return TermKind::Jump;
      case InstrClass::Call:
        return TermKind::Call;
      case InstrClass::CallIndirect:
        return TermKind::CallIndirect;
      case InstrClass::JumpIndirect:
        return TermKind::JumpIndirect;
      case InstrClass::Return:
        return TermKind::Return;
      case InstrClass::Halt:
        return TermKind::Halt;
      default:
        panic("termKindOf: not a control-flow class");
    }
}

} // namespace

void
Cfg::OffsetRank::reset(std::size_t size)
{
    bits_.assign((size + 63) / 64, 0);
    before_.clear();
}

void
Cfg::OffsetRank::finalize()
{
    before_.resize(bits_.size() + 1);
    u32 n = 0;
    for (std::size_t w = 0; w < bits_.size(); ++w) {
        before_[w] = n;
        n += popcount64(bits_[w]);
    }
    before_.back() = n;
}

u32
Cfg::OffsetRank::find(u64 off) const
{
    const u64 w = off >> 6;
    if (w >= bits_.size())
        return kNone;
    const u64 bit = u64{1} << (off & 63);
    if (!(bits_[w] & bit))
        return kNone;
    return before_[w] + popcount64(bits_[w] & (bit - 1));
}

bool
Cfg::OffsetRank::covers(const std::vector<u64> &bits) const
{
    for (std::size_t w = 0; w < bits.size(); ++w)
        if (bits[w] & ~bits_[w])
            return false;
    return true;
}

u32
Cfg::idAtStart(Addr start) const
{
    // Unsigned wrap sends addresses below the base out of range too.
    const u32 r = start - base_ < codeSize_ ? starts_.find(start - base_)
                                            : OffsetRank::kNone;
    return r == OffsetRank::kNone ? r : startIds_[r];
}

void
Cfg::index()
{
    starts_.reset(codeSize_);
    terms_.reset(codeSize_);
    for (const BasicBlock &bb : blocks_) {
        starts_.set(bb.start - base_);
        terms_.set(bb.term - base_);
    }
    starts_.finalize();
    terms_.finalize();

    startIds_.assign(blocks_.size(), 0);
    termBegin_.assign(terms_.count() + 1, 0);
    for (const BasicBlock &bb : blocks_) {
        startIds_[starts_.find(bb.start - base_)] = bb.id;
        ++termBegin_[terms_.find(bb.term - base_) + 1];
    }
    for (std::size_t r = 1; r < termBegin_.size(); ++r)
        termBegin_[r] += termBegin_[r - 1];
    // Counting sort in id order: each terminator's group lists its
    // blocks by ascending id.
    termIds_.assign(blocks_.size(), 0);
    std::vector<u32> cursor(termBegin_.begin(), termBegin_.end() - 1);
    for (const BasicBlock &bb : blocks_)
        termIds_[cursor[terms_.find(bb.term - base_)]++] = bb.id;
}

const BasicBlock *
Cfg::blockAtStart(Addr start) const
{
    const u32 id = idAtStart(start);
    return id == OffsetRank::kNone ? nullptr : &blocks_[id];
}

std::span<const u32>
Cfg::blocksAtTerm(Addr term) const
{
    const u32 r = term - base_ < codeSize_ ? terms_.find(term - base_)
                                           : OffsetRank::kNone;
    if (r == OffsetRank::kNone)
        return {};
    return {termIds_.data() + termBegin_[r],
            termIds_.data() + termBegin_[r + 1]};
}

CfgStats
Cfg::stats() const
{
    CfgStats s;
    s.numBlocks = blocks_.size();
    s.numTerminators = terms_.count();
    s.numBranchInstrs = terms_.count();
    u64 instrs = 0, succs = 0;
    for (const auto &bb : blocks_) {
        instrs += bb.numInstrs;
        succs += bb.succSpan.count;
        if (termIsComputed(bb.kind) && blocksAtTerm(bb.term)[0] == bb.id)
            ++s.numComputedSites;
    }
    if (!blocks_.empty()) {
        s.avgInstrsPerBlock = static_cast<double>(instrs) / blocks_.size();
        s.avgSuccsPerBlock = static_cast<double>(succs) / blocks_.size();
    }
    return s;
}

Cfg
deriveCfg(const Module &mod, const SplitLimits &limits)
{
    Cfg cfg;
    cfg.limits_ = limits;
    cfg.base_ = mod.base;
    cfg.codeSize_ = mod.codeSize;

    // ---- pass 1: one linear decode, with leader discovery ----------------
    // Opcode bytes are stored densely in address order; a rank index over
    // the instructions' start offsets maps an address to its index. One
    // bit per code byte marks block starts: the direct-branch targets and
    // the fall-throughs of control transfers.
    const std::size_t code_size = mod.codeSize;
    const u8 *code = mod.image.data();
    std::vector<u8> ops;
    ops.reserve(code_size / 4);
    Cfg::OffsetRank at;
    at.reset(code_size);
    std::vector<u64> leader((code_size + 63) / 64, 0);
    auto mark = [&](Addr a) {
        const u64 off = a - mod.base;
        leader[off >> 6] |= u64{1} << (off & 63);
    };
    bool wild_target = false; // a direct target outside the code region
    for (std::size_t off = 0; off < code_size;) {
        const auto ins = isa::decode(code + off, code_size - off);
        if (!ins)
            fatal("buildCfg: undecodable code in '", mod.name,
                  "' at offset ", off);
        at.set(off);
        ops.push_back(static_cast<u8>(ins->op));
        const Addr pc = mod.base + off;
        off += ins->length();
        switch (ins->klass()) {
          case InstrClass::Branch:
          case InstrClass::Jump:
          case InstrClass::Call: {
            const Addr target = ins->directTarget(pc);
            if (target - mod.base < code_size)
                mark(target);
            else
                wild_target = true;
            break;
          }
          default:
            break;
        }
        if (ins->isControlFlow() && off < code_size)
            mark(mod.base + off);
    }
    at.finalize();
    const u32 num_instrs = static_cast<u32>(ops.size());

    /** Index in ops of the instruction starting at @p a, or kNone. */
    auto index_of = [&](Addr a) {
        return a - mod.base < code_size ? at.find(a - mod.base)
                                        : Cfg::OffsetRank::kNone;
    };
    auto add_leader = [&](Addr a, const char *why) {
        if (index_of(a) == Cfg::OffsetRank::kNone)
            fatal("buildCfg: '", mod.name, "': ", why, " target 0x",
                  std::hex, a, " is not an instruction boundary");
        mark(a);
    };

    if (code_size > 0)
        add_leader(mod.entry, "entry");
    if (wild_target || !at.covers(leader)) {
        // Some direct target starts no instruction: name the first one in
        // code order.
        for (std::size_t off = 0; off < code_size;) {
            const Instr ins = *isa::decode(code + off, code_size - off);
            switch (ins.klass()) {
              case InstrClass::Branch:
              case InstrClass::Jump:
              case InstrClass::Call:
                add_leader(ins.directTarget(mod.base + off), "direct branch");
                break;
              default:
                break;
            }
            off += ins.length();
        }
    }
    for (const auto &[site, targets] : mod.indirectTargets) {
        if (index_of(site) == Cfg::OffsetRank::kNone)
            fatal("buildCfg: '", mod.name, "': indirect annotation site 0x",
                  std::hex, site, " is not an instruction");
        for (Addr t : targets) {
            // Cross-module targets are resolved by the callee module's
            // own CFG; only intra-module targets become leaders here.
            if (t >= mod.base && t < mod.codeEnd())
                add_leader(t, "annotated indirect");
        }
    }

    // ---- pass 2: walk each leader to its terminator ----------------------
    // Walking may create artificial-split fall-through leaders; use a
    // worklist. Leaders seed it in ascending address order (block IDs — and
    // thus table layout — depend on it). The leader bits double as the
    // admitted set, so each start is queued once.
    std::vector<Addr> work;
    for (std::size_t w = 0; w < leader.size(); ++w)
        for (u64 bits = leader[w]; bits != 0; bits &= bits - 1)
            work.push_back(mod.base + w * 64 + std::countr_zero(bits));
    cfg.blocks_.reserve(work.size());

    for (std::size_t next = 0; next < work.size(); ++next) {
        const Addr start = work[next];

        BasicBlock bb;
        bb.id = static_cast<u32>(cfg.blocks_.size());
        bb.start = start;

        Addr pc = start;
        // kNone (past every index) when a split ran to the code end.
        for (u32 i = index_of(start);; ++i) {
            if (i >= num_instrs)
                fatal("buildCfg: '", mod.name, "': control falls off the ",
                      "end of code at 0x", std::hex, pc);
            const Instr ins{.op = static_cast<isa::Opcode>(ops[i])};
            ++bb.numInstrs;
            if (ins.writesMem())
                ++bb.numStores;

            if (ins.isControlFlow()) {
                bb.term = pc;
                bb.end = ins.fallThrough(pc);
                bb.kind = termKindOf(ins.klass());
                break;
            }
            if (bb.numInstrs >= limits.maxInstrs ||
                bb.numStores >= limits.maxStores) {
                bb.term = pc;
                bb.end = ins.fallThrough(pc);
                bb.kind = TermKind::Split;
                break;
            }
            pc = ins.fallThrough(pc);
        }

        if (bb.kind == TermKind::Split) {
            // A split's fall-through may sit at the code end; queue it
            // anyway so the walk reports the fall-off error.
            const u64 off = bb.end - mod.base;
            if (off >= code_size) {
                work.push_back(bb.end);
            } else if (!(leader[off >> 6] & (u64{1} << (off & 63)))) {
                mark(bb.end);
                work.push_back(bb.end);
            }
        }

        cfg.blocks_.push_back(std::move(bb));
    }
    cfg.index();

    // ---- pass 3: successor lists per terminator --------------------------
    // Successors are a property of the terminating instruction: one list
    // per terminator, shared by every (suffix) block ending at it. Return
    // successors are linked later (linkCfgs); halt has none.
    std::vector<Addr> &out = cfg.succs_;
    out.reserve(cfg.blocks_.size() * 2);
    for (const BasicBlock &bb : cfg.blocks_) {
        const Addr term = bb.term;
        const std::span<const u32> ids = cfg.blocksAtTerm(term);
        if (ids[0] != bb.id || bb.kind == TermKind::Return)
            continue; // the terminator's first block did the whole group
        const Instr ins = *isa::decode(code + (term - mod.base),
                                       code_size - (term - mod.base));
        const std::size_t first = out.size();
        auto add_succ = [&](Addr target) {
            if (std::find(out.begin() + first, out.end(), target) ==
                out.end())
                out.push_back(target);
        };
        switch (bb.kind) {
          case TermKind::Branch:
            add_succ(ins.directTarget(term));
            add_succ(bb.end);
            break;
          case TermKind::Jump:
          case TermKind::Call:
            add_succ(ins.directTarget(term));
            break;
          case TermKind::CallIndirect:
          case TermKind::JumpIndirect: {
            auto it = mod.indirectTargets.find(term);
            if (it != mod.indirectTargets.end())
                for (Addr t : it->second)
                    add_succ(t);
            break;
          }
          case TermKind::Split:
            add_succ(bb.end);
            break;
          case TermKind::Return:
          case TermKind::Halt:
            break;
        }
        const EdgeSpan span{static_cast<u32>(first),
                            static_cast<u32>(out.size() - first)};
        for (u32 id : ids)
            cfg.blocks_[id].succSpan = span;
    }
    return cfg;
}

Cfg
buildCfg(const Module &mod, const SplitLimits &limits)
{
    Cfg cfg = deriveCfg(mod, limits);
    // Return-site analysis for this module in isolation.
    linkCfgs({&cfg});
    return cfg;
}

void
linkCfgs(const std::vector<Cfg *> &cfgs)
{
    // Module code ranges are disjoint, so every start and terminator has
    // exactly one owning CFG; per-CFG scratch is indexed by block id.
    struct Scratch
    {
        std::vector<u32> visited; ///< BFS stamp per block
        std::vector<u32> memo;    ///< block id -> entry_rets slot, or kNone
        /**
         * Return edges in discovery order, as (list, address). List 2*id
         * holds the return successors of the RET whose first block is id;
         * list 2*id+1 the return predecessors of block id.
         */
        std::vector<std::pair<u32, Addr>> edges;
    };
    constexpr u32 kNone = ~u32{0};
    std::vector<Scratch> scratch(cfgs.size());
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        Cfg &cfg = *cfgs[c];
        // Drop any previous return-edge information (idempotence).
        for (BasicBlock &bb : cfg.blocks_) {
            if (bb.kind == TermKind::Return)
                bb.succSpan = {};
            bb.retPredSpan = {};
        }
        cfg.retEdges_.clear();
        scratch[c].visited.assign(cfg.blocks_.size(), 0);
        scratch[c].memo.assign(cfg.blocks_.size(), kNone);
    }

    /** Index into cfgs of the CFG whose code holds @p a, or kNone. */
    auto owner = [&](Addr a) -> u32 {
        for (std::size_t c = 0; c < cfgs.size(); ++c)
            if (a - cfgs[c]->base_ < cfgs[c]->codeSize_)
                return static_cast<u32>(c);
        return kNone;
    };
    // The block starting at @p a: {index into cfgs, block id}, with id
    // kNone when no known module has a block there.
    struct Loc
    {
        u32 cfg = 0;
        u32 id = kNone;
    };
    auto locate = [&](Addr a) -> Loc {
        const u32 c = owner(a);
        return c == kNone ? Loc{} : Loc{c, cfgs[c]->idAtStart(a)};
    };

    // RET instructions reachable intra-procedurally from a function entry,
    // following edges across modules. Memoized per entry block: each
    // entry's RETs sit back to back in entry_rets.
    std::vector<Addr> entry_rets;
    std::vector<std::pair<u32, u32>> entry_range; ///< memo slot -> [b, e)
    std::vector<Addr> bfs;
    u32 stamp = 0;
    auto reachable_rets = [&](Addr entry) -> std::span<const Addr> {
        const Loc e = locate(entry);
        if (e.id == kNone)
            return {}; // not a block entry of any known module
        u32 &memo = scratch[e.cfg].memo[e.id];
        if (memo == kNone) {
            const auto begin = static_cast<u32>(entry_rets.size());
            ++stamp;
            bfs.assign(1, entry);
            for (std::size_t head = 0; head < bfs.size(); ++head) {
                const Loc at = locate(bfs[head]);
                if (at.id == kNone)
                    continue; // target outside every known block
                u32 &visited = scratch[at.cfg].visited[at.id];
                if (visited == stamp)
                    continue;
                visited = stamp;
                const Cfg &cfg = *cfgs[at.cfg];
                const BasicBlock &bb = cfg.blocks_[at.id];
                switch (bb.kind) {
                  case TermKind::Return:
                    entry_rets.push_back(bb.term);
                    break;
                  case TermKind::Halt:
                    break;
                  case TermKind::Call:
                  case TermKind::CallIndirect:
                    // Intra-procedural flow resumes at the return site.
                    bfs.push_back(bb.end);
                    break;
                  default:
                    for (Addr t : cfg.succs(bb))
                        bfs.push_back(t);
                    break;
                }
            }
            memo = static_cast<u32>(entry_range.size());
            entry_range.emplace_back(begin,
                                     static_cast<u32>(entry_rets.size()));
        }
        const auto [b, end] = entry_range[memo];
        return {entry_rets.data() + b, entry_rets.data() + end};
    };

    // Visit every call site once (by terminator address); a RET reachable
    // from a callee may transfer to the call's return site.
    for (Cfg *cfg : cfgs) {
        for (const BasicBlock &bb : cfg->blocks_) {
            if (bb.kind != TermKind::Call &&
                bb.kind != TermKind::CallIndirect)
                continue;
            if (cfg->blocksAtTerm(bb.term)[0] != bb.id)
                continue;
            const Addr return_site = bb.end;
            const Loc ret_at = locate(return_site);
            if (ret_at.id == kNone)
                continue;
            for (Addr entry : cfg->succs(bb)) {
                for (Addr r : reachable_rets(entry)) {
                    const u32 rc = owner(r);
                    const u32 first = cfgs[rc]->blocksAtTerm(r)[0];
                    scratch[rc].edges.emplace_back(2 * first, return_site);
                    scratch[ret_at.cfg].edges.emplace_back(
                        2 * ret_at.id + 1, r);
                }
            }
        }
    }

    // Lay each CFG's edges out list by list with a stable counting sort,
    // keeping the first occurrence of each address in a list: the order
    // a find-before-push per list would build.
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        Cfg &cfg = *cfgs[c];
        const std::vector<std::pair<u32, Addr>> &edges = scratch[c].edges;
        const u32 lists = static_cast<u32>(2 * cfg.blocks_.size());
        std::vector<u32> begin(lists + 1, 0);
        for (const auto &[list, a] : edges)
            ++begin[list + 1];
        for (u32 l = 0; l < lists; ++l)
            begin[l + 1] += begin[l];
        std::vector<Addr> sorted(edges.size());
        {
            std::vector<u32> cursor(begin.begin(), begin.end() - 1);
            for (const auto &[list, a] : edges)
                sorted[cursor[list]++] = a;
        }

        std::vector<Addr> &out = cfg.retEdges_;
        out.reserve(sorted.size());
        for (u32 l = 0; l < lists; ++l) {
            if (begin[l] == begin[l + 1])
                continue;
            const std::size_t first = out.size();
            for (u32 i = begin[l]; i < begin[l + 1]; ++i)
                if (std::find(out.begin() + first, out.end(), sorted[i]) ==
                    out.end())
                    out.push_back(sorted[i]);
            const EdgeSpan span{static_cast<u32>(first),
                                static_cast<u32>(out.size() - first)};
            BasicBlock &bb = cfg.blocks_[l / 2];
            if (l % 2 == 1) {
                bb.retPredSpan = span;
            } else {
                for (u32 id : cfg.blocksAtTerm(bb.term))
                    cfg.blocks_[id].succSpan = span;
            }
        }
    }
}

} // namespace rev::prog
