#include "program/cfg.hpp"

#include <algorithm>
#include <bit>
#include <deque>

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
        n += static_cast<u32>(std::popcount(bits_[w]));
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
    return before_[w] + static_cast<u32>(std::popcount(bits_[w] & (bit - 1)));
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
        succs += bb.succs.size();
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

    // ---- pass 1: linear decode of the code region -----------------------
    // The code region is contiguous, so flat offset-indexed arrays replace
    // tree searches on the per-instruction hot paths below.
    const std::size_t code_size = mod.codeSize;
    std::vector<Instr> instrs(code_size);
    std::vector<u8> is_instr(code_size, 0);
    {
        Addr pc = mod.base;
        while (pc < mod.codeEnd()) {
            const std::size_t off = pc - mod.base;
            auto ins = isa::decode(mod.image.data() + off,
                                   code_size - off);
            if (!ins)
                fatal("buildCfg: undecodable code in '", mod.name,
                      "' at offset ", off);
            instrs[off] = *ins;
            is_instr[off] = 1;
            pc += ins->length();
        }
    }

    auto instr_exists = [&](Addr a) {
        return a >= mod.base && a < mod.codeEnd() && is_instr[a - mod.base];
    };

    // ---- pass 2: leader discovery ---------------------------------------
    std::vector<u8> is_leader(code_size, 0);
    auto add_leader = [&](Addr a, const char *why) {
        if (!instr_exists(a))
            fatal("buildCfg: '", mod.name, "': ", why, " target 0x",
                  std::hex, a, " is not an instruction boundary");
        is_leader[a - mod.base] = 1;
    };

    if (mod.codeSize > 0)
        add_leader(mod.entry, "entry");

    for (std::size_t off = 0; off < code_size; ++off) {
        if (!is_instr[off])
            continue;
        const Addr pc = mod.base + off;
        const Instr &ins = instrs[off];
        switch (ins.klass()) {
          case InstrClass::Branch:
          case InstrClass::Jump:
          case InstrClass::Call:
            add_leader(ins.directTarget(pc), "direct branch");
            break;
          default:
            break;
        }
        if (ins.isControlFlow()) {
            const Addr ft = ins.fallThrough(pc);
            if (instr_exists(ft))
                is_leader[ft - mod.base] = 1;
        }
    }
    for (const auto &[site, targets] : mod.indirectTargets) {
        if (!instr_exists(site))
            fatal("buildCfg: '", mod.name, "': indirect annotation site 0x",
                  std::hex, site, " is not an instruction");
        for (Addr t : targets) {
            // Cross-module targets are resolved by the callee module's
            // own CFG; only intra-module targets become leaders here.
            if (t >= mod.base && t < mod.codeEnd())
                add_leader(t, "annotated indirect");
        }
    }

    // ---- pass 3: walk each leader to its terminator ----------------------
    // Walking may create artificial-split fall-through leaders; use a
    // worklist. Leaders seed it in ascending address order (block IDs — and
    // thus table layout — depend on it). `queued` admits each start once.
    std::vector<Addr> work;
    std::vector<u8> queued = is_leader;
    for (std::size_t off = 0; off < code_size; ++off)
        if (is_leader[off])
            work.push_back(mod.base + off);

    for (std::size_t next = 0; next < work.size(); ++next) {
        const Addr start = work[next];

        BasicBlock bb;
        bb.id = static_cast<u32>(cfg.blocks_.size());
        bb.start = start;

        Addr pc = start;
        while (true) {
            if (!instr_exists(pc))
                fatal("buildCfg: '", mod.name, "': control falls off the ",
                      "end of code at 0x", std::hex, pc);
            const Instr &ins = instrs[pc - mod.base];
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
            // A split's fall-through may sit past the code end; queue it
            // anyway so the walk reports the fall-off error.
            const bool in_code = bb.end >= mod.base && bb.end < mod.codeEnd();
            if (!in_code || !queued[bb.end - mod.base]) {
                if (in_code)
                    queued[bb.end - mod.base] = 1;
                work.push_back(bb.end);
            }
        }

        cfg.blocks_.push_back(std::move(bb));
    }
    cfg.index();

    // ---- pass 4: successor sets per terminator ---------------------------
    // Successors are a property of the terminating instruction, shared by
    // every (suffix) block ending at it.
    std::vector<Addr> succs;
    auto add_succ = [&](Addr target) {
        if (std::find(succs.begin(), succs.end(), target) == succs.end())
            succs.push_back(target);
    };
    for (const BasicBlock &bb : cfg.blocks_) {
        const Addr term = bb.term;
        const std::span<const u32> ids = cfg.blocksAtTerm(term);
        if (ids[0] != bb.id)
            continue; // the terminator's first block did the whole group
        const Instr &ins = instrs[term - mod.base];
        succs.clear();
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
            break; // returns are linked later; halt has no successor
        }
        for (u32 id : ids)
            cfg.blocks_[id].succs = succs;
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
        std::vector<u32> memo;    ///< block id -> rets_of_entry slot, or kNone
    };
    constexpr u32 kNone = ~u32{0};
    std::vector<Scratch> scratch(cfgs.size());
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        for (auto &bb : cfgs[c]->blocks_) {
            // Reset any previous return-edge information (idempotence).
            if (bb.kind == TermKind::Return)
                bb.succs.clear();
            bb.retPreds.clear();
        }
        scratch[c].visited.assign(cfgs[c]->blocks_.size(), 0);
        scratch[c].memo.assign(cfgs[c]->blocks_.size(), kNone);
    }

    // The block starting at @p a: {index into cfgs, block id}, with id
    // kNone when no known module has a block there.
    struct Loc
    {
        u32 cfg = 0;
        u32 id = kNone;
    };
    auto locate = [&](Addr a) -> Loc {
        for (std::size_t c = 0; c < cfgs.size(); ++c)
            if (a - cfgs[c]->base_ < cfgs[c]->codeSize_)
                return {static_cast<u32>(c), cfgs[c]->idAtStart(a)};
        return {};
    };

    // RET instructions reachable intra-procedurally from a function entry,
    // following edges across modules. Memoized per entry block.
    std::deque<std::vector<Addr>> rets_of_entry;
    const std::vector<Addr> no_rets;
    std::vector<Addr> bfs;
    u32 stamp = 0;
    auto reachable_rets = [&](Addr entry) -> const std::vector<Addr> & {
        const Loc e = locate(entry);
        if (e.id == kNone)
            return no_rets; // not a block entry of any known module
        u32 &memo = scratch[e.cfg].memo[e.id];
        if (memo != kNone)
            return rets_of_entry[memo];

        std::vector<Addr> rets;
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
            const BasicBlock &bb = cfgs[at.cfg]->blocks_[at.id];
            switch (bb.kind) {
              case TermKind::Return:
                rets.push_back(bb.term);
                break;
              case TermKind::Halt:
                break;
              case TermKind::Call:
              case TermKind::CallIndirect:
                // Intra-procedural flow resumes at the return site.
                bfs.push_back(bb.end);
                break;
              default:
                for (Addr t : bb.succs)
                    bfs.push_back(t);
                break;
            }
        }
        memo = static_cast<u32>(rets_of_entry.size());
        rets_of_entry.push_back(std::move(rets));
        return rets_of_entry.back();
    };

    // Visit every call site once (by terminator address).
    for (Cfg *cfg : cfgs) {
        for (const auto &bb : cfg->blocks_) {
            if (bb.kind != TermKind::Call &&
                bb.kind != TermKind::CallIndirect)
                continue;
            if (cfg->blocksAtTerm(bb.term)[0] != bb.id)
                continue;
            const Addr return_site = bb.end;
            const Loc ret_at = locate(return_site);
            if (ret_at.id == kNone)
                continue;
            BasicBlock &rb = cfgs[ret_at.cfg]->blocks_[ret_at.id];
            for (Addr entry : bb.succs) {
                for (Addr r : reachable_rets(entry)) {
                    // The RET may transfer to this call's return site.
                    Cfg &rcfg = *cfgs[locate(r).cfg];
                    for (u32 id : rcfg.blocksAtTerm(r)) {
                        auto &succs = rcfg.blocks_[id].succs;
                        if (std::find(succs.begin(), succs.end(),
                                      return_site) == succs.end())
                            succs.push_back(return_site);
                    }
                    auto &preds = rb.retPreds;
                    if (std::find(preds.begin(), preds.end(), r) ==
                        preds.end())
                        preds.push_back(r);
                }
            }
        }
    }
}

} // namespace rev::prog
