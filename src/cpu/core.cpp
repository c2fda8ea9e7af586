#include "cpu/core.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace rev::cpu
{

using isa::InstrClass;

namespace
{

/** Decode/rename depth in cycles (part of the S-stage front end). */
constexpr unsigned kDecodeDepth = 6;

} // namespace

Core::Core(const prog::Program &program, SparseMemory &mem,
           mem::MemorySystem &memsys, const CoreConfig &cfg,
           validate::Validator *hooks, unsigned core_id)
    : program_(program), mem_(mem), memsys_(memsys), coreId_(core_id),
      cfg_(cfg), hooks_(hooks ? *hooks : nullHooks_), machine_(program, mem),
      predictor_(cfg.predictor)
{
}

void
Core::drainStores(SeqNum up_to, Cycle at)
{
    while (!pendingStores_.empty() && pendingStores_.front().seq <= up_to) {
        memsys_.access(pendingStores_.front().addr,
                       mem::AccessType::DataWrite, at, coreId_);
        pendingStores_.pop_front();
    }
}

Core::RunState::RunState(const CoreConfig &cfg, Addr pc, Cycle clock_base)
    : fetchW(cfg.fetchWidth), dispatchW(cfg.dispatchWidth),
      commitW(cfg.commitWidth), rob(cfg.robSize), iq(cfg.iqSize),
      lsq(cfg.lsqSize), fq(cfg.fetchQueueSize), alu(cfg.numIntAlu),
      fpu(cfg.numFpu), ldPort(cfg.numLoadPorts), stPort(cfg.numStorePorts),
      // Resumed runs continue the cycle timebase so the (persistent)
      // memory-system port and bank timestamps stay coherent.
      fetchResume(clock_base), fetchFrontier(clock_base),
      lineReady(clock_base), prevCommit(clock_base), bb{pc, 0, 0, 1},
      nextInterrupt(cfg.interruptInterval ? clock_base + cfg.interruptInterval
                                          : kNoCycle),
      clockStart(clock_base)
{
}

RunResult
Core::run()
{
    RunResult res;
    const bool paused = runSlice(kRunToEnd, &res);
    REV_ASSERT(!paused, "run() cannot pause");
    return res;
}

bool
Core::runSlice(u64 pause_before, RunResult *out)
{
    // Attack injectors mutate machine/memory state mid-run, which a
    // replayed trace cannot reflect: fall back to direct execution. Only
    // legal before anything was consumed — the architectural state is
    // still the recorded run's starting state at that point.
    if (preStep_ && machine_.replaying()) {
        REV_ASSERT(machine_.replayConsumed() == 0,
                   "PreStepHook attached mid-replay");
        machine_.cancelReplay();
    }

    if (!state_)
        state_.emplace(cfg_, machine_.pc(), clockBase_);
    lastCommit_ = state_->prevCommit;
    if (loop(*state_, pause_before))
        return true;
    RunResult res = finish(*state_);
    if (out)
        *out = res;
    return false;
}

bool
Core::runUntil(u64 index, RunResult *out)
{
    // Snapshot cursors execute directly: a replayed machine maintains no
    // architectural state to capture.
    REV_ASSERT(!machine_.replaying(), "runUntil() on a replaying machine");
    return runSlice(index, out);
}

Core::Core(const Core &source, SparseMemory &mem, mem::MemorySystem &memsys,
           validate::Validator *hooks)
    : program_(source.program_), mem_(mem), memsys_(memsys),
      coreId_(source.coreId_), cfg_(source.cfg_),
      hooks_(hooks ? *hooks : nullHooks_), machine_(source.machine_, mem),
      sb_(source.sb_), predictor_(source.predictor_),
      pendingStores_(source.pendingStores_), state_(source.state_),
      clockBase_(source.clockBase_), lastCommit_(source.lastCommit_)
{
}

bool
Core::loop(RunState &st, u64 pause_before)
{
    RunResult &res = st.res;
    WidthLimiter &fetch_w = st.fetchW;
    WidthLimiter &dispatch_w = st.dispatchW;
    WidthLimiter &commit_w = st.commitW;
    OccupancyRing &rob = st.rob;
    OccupancyRing &iq = st.iq;
    OccupancyRing &lsq = st.lsq;
    OccupancyRing &fq = st.fq;
    FuPool &alu = st.alu;
    FuPool &fpu = st.fpu;
    FuPool &ld_port = st.ldPort;
    FuPool &st_port = st.stPort;
    std::array<Cycle, isa::kNumArchRegs> &reg_ready = st.regReady;
    FlatSet<Addr> &unique_branches = st.uniqueBranches;
    Cycle &fetch_resume = st.fetchResume;
    Cycle &fetch_frontier = st.fetchFrontier;
    Addr &last_line = st.lastLine;
    Cycle &line_ready = st.lineReady;
    Cycle &prev_commit = st.prevCommit;
    SeqNum &seq = st.seq;
    // Newest sequence number released from the store buffer. During
    // replay the buffer holds nothing (replay applies no stores), so
    // store-queue forwarding is decided from the recorded cover distance
    // against this config's own drain watermark instead of sb_.covers().
    SeqNum &drained_seq = st.drainedSeq;
    BBState &bb = st.bb;
    BBSeq &bb_counter = st.bbCounter;
    Cycle &next_interrupt = st.nextInterrupt;

    const unsigned line_bytes = memsys_.config().lineBytes;
    const unsigned line_shift = 6; // 64-byte lines
    REV_ASSERT(line_bytes == 64, "core assumes 64-byte lines");

    while (true) {
        // Pause BEFORE the pre-step of the stop instruction: the fork's
        // (or the resumed run's) first pre-step then fires for exactly
        // this index, as a cold run's would.
        if (pause_before != kRunToEnd && res.instrs >= pause_before)
            return true;
        if (preStep_)
            preStep_(res.instrs, machine_.pc());
        if (machine_.halted())
            break;

        const Addr pc = machine_.pc();
        const prog::ExecRecord rec = machine_.step(&sb_, ++seq);
        if (rec.invalid) {
            res.violation = Violation{prev_commit, pc, seq,
                                      "undecodable instruction bytes"};
            break;
        }
        const unsigned len = rec.ins.length();

        // ---- fetch -------------------------------------------------------
        Cycle fetch_lower = std::max(fetch_resume, fetch_frontier);
        for (Addr line = pc >> line_shift; line <= (pc + len - 1) >> line_shift;
             ++line) {
            if (line == last_line)
                continue;
            last_line = line;
            const auto r = memsys_.access(line << line_shift,
                                          mem::AccessType::InstrFetch,
                                          fetch_lower, coreId_);
            line_ready = r.l1Hit ? fetch_lower : r.completeAt;
            if (!r.l1Hit && cfg_.nextLinePrefetch) {
                // Prefetch the next line at the lowest priority class.
                memsys_.access((line + 1) << line_shift,
                               mem::AccessType::Prefetch, fetch_lower,
                               coreId_);
            }
        }
        fetch_lower = std::max({fetch_lower, line_ready, fq.allocReadyAt()});
        const Cycle fetch_at = fetch_w.reserve(fetch_lower);
        fetch_frontier = fetch_at;

        // ---- basic-block tracking (front end) -----------------------------
        ++bb.instrs;
        if (rec.ins.writesMem())
            ++bb.stores;
        const bool is_cf = rec.ins.isControlFlow();
        const bool is_split =
            !is_cf && (bb.instrs >= cfg_.splitLimits.maxInstrs ||
                       bb.stores >= cfg_.splitLimits.maxStores);
        const bool is_term = is_cf || is_split;

        if (is_term) {
            validate::BBFetchInfo info;
            info.bbSeq = bb.seq;
            info.start = bb.start;
            info.term = pc;
            info.end = pc + len;
            info.termClass = rec.ins.klass();
            info.artificialSplit = is_split;
            info.termSeq = seq;
            info.fetchDoneAt = fetch_at;
            info.nextStart = rec.nextPc;
            hooks_.onBBFetched(info);
        }

        // ---- rename / dispatch --------------------------------------------
        const bool is_mem = rec.isLoad || rec.isStore;
        Cycle dispatch_lower = std::max<Cycle>(
            {fetch_at + kDecodeDepth, rob.allocReadyAt(), iq.allocReadyAt()});
        if (is_mem)
            dispatch_lower = std::max(dispatch_lower, lsq.allocReadyAt());
        const Cycle dispatch_at = dispatch_w.reserve(dispatch_lower);
        fq.push(dispatch_at);

        // ---- issue / execute ----------------------------------------------
        const isa::RegUse &use = rec.use;
        Cycle op_ready = 0;
        for (unsigned i = 0; i < use.nsrc; ++i)
            op_ready = std::max(op_ready, reg_ready[use.srcs[i]]);
        const Cycle issue_lower = std::max(dispatch_at + 1, op_ready);

        Cycle issue_at = 0, complete_at = 0;
        switch (rec.ins.klass()) {
          case InstrClass::IntDiv:
            issue_at = alu.acquire(issue_lower, cfg_.intDivLat);
            complete_at = issue_at + cfg_.intDivLat;
            break;
          case InstrClass::IntMul:
            issue_at = alu.acquire(issue_lower, 1);
            complete_at = issue_at + cfg_.intMulLat;
            break;
          case InstrClass::FpAlu:
            issue_at = fpu.acquire(issue_lower, 1);
            complete_at = issue_at + cfg_.fpAluLat;
            break;
          case InstrClass::FpMul:
            issue_at = fpu.acquire(issue_lower, 1);
            complete_at = issue_at + cfg_.fpMulLat;
            break;
          case InstrClass::FpDiv:
            issue_at = fpu.acquire(issue_lower, cfg_.fpDivLat);
            complete_at = issue_at + cfg_.fpDivLat;
            break;
          case InstrClass::Load:
          case InstrClass::Return: {
            issue_at = ld_port.acquire(issue_lower, 1);
            const Cycle agu_done = issue_at + 1;
            const bool forwards =
                machine_.replaying()
                    ? rec.coverDist != 0 && rec.coverDist < seq - drained_seq
                    : sb_.covers(rec.memAddr, rec.memSize);
            if (forwards) {
                complete_at = agu_done + 1; // store-queue forwarding
            } else {
                const auto r = memsys_.access(
                    rec.memAddr, mem::AccessType::DataRead, agu_done,
                    coreId_);
                complete_at = r.completeAt;
            }
            ++res.loads;
            break;
          }
          case InstrClass::Store:
          case InstrClass::Call:
          case InstrClass::CallIndirect:
            issue_at = st_port.acquire(issue_lower, 1);
            complete_at = issue_at + 1; // address + data capture
            ++res.stores;
            break;
          default:
            issue_at = alu.acquire(issue_lower, 1);
            complete_at = issue_at + cfg_.intAluLat;
            break;
        }
        iq.push(issue_at + 1);
        if (use.dst >= 0)
            reg_ready[use.dst] = complete_at;

        if (rec.isStore)
            pendingStores_.push_back({seq, rec.memAddr});

        // ---- branch resolution / redirect -----------------------------------
        if (is_cf && rec.ins.klass() != InstrClass::Halt) {
            const bool taken = rec.ins.isBranch() ? rec.taken : true;
            Prediction pred;
            const bool wrong = predictor_.predictAndTrain(
                rec.ins, pc, taken, rec.nextPc, &pred);
            if (wrong) {
                const Cycle resolve = complete_at;
                fetch_resume = std::max(fetch_resume,
                                        resolve + cfg_.redirectPenalty);
                ++res.mispredicts;
                if (cfg_.modelWrongPath) {
                    // The front end keeps streaming down the predicted
                    // (wrong) path until the branch resolves, dirtying
                    // the I-side structures. The fetched work itself is
                    // squashed.
                    Addr wpc = pred.valid && pred.taken
                                   ? pred.target
                                   : rec.ins.fallThrough(pc);
                    if (wpc == rec.nextPc)
                        wpc = rec.ins.fallThrough(pc); // target mispredict
                    Addr wline = kNoAddr;
                    Cycle t = fetch_at;
                    for (unsigned i = 0;
                         i < cfg_.wrongPathInstrs && wpc != rec.nextPc;
                         ++i) {
                        const prog::Predecoded *wins =
                            machine_.predecode(wpc);
                        if (!wins)
                            break;
                        const Addr line = wpc >> line_shift;
                        if (line != wline) {
                            wline = line;
                            memsys_.access(line << line_shift,
                                           mem::AccessType::InstrFetch, t,
                                           coreId_);
                            ++t;
                        }
                        ++res.wrongPathFetches;
                        if (wins->ins.isControlFlow())
                            break; // cannot follow further without resolving
                        wpc = wpc + wins->len;
                    }
                }
                hooks_.onMispredictResolved(resolve);
            }
        }

        // ---- commit ----------------------------------------------------------
        Cycle commit_lower = std::max<Cycle>(
            {complete_at + 1, fetch_at + cfg_.frontendDepth, prev_commit});
        if (is_term)
            commit_lower = hooks_.commitReadyAt(bb.seq, commit_lower);
        const Cycle commit_at = commit_w.reserve(commit_lower);
        prev_commit = commit_at;
        lastCommit_ = commit_at;
        rob.push(commit_at);
        if (is_mem)
            lsq.push(commit_at);

        ++res.instrs;
        if (is_cf) {
            ++res.committedBranches;
            unique_branches.insert(pc);
        }
        if (rec.isSyscall)
            hooks_.onSyscall(rec.syscallNo, commit_at);

        // ---- external interrupts (taken at validated BB boundaries) ----
        if (is_term && commit_at >= next_interrupt) {
            fetch_resume = std::max(fetch_resume,
                                    commit_at + cfg_.interruptPenalty);
            next_interrupt = commit_at + cfg_.interruptInterval;
            ++res.interrupts;
            hooks_.onInterrupt(commit_at);
        }

        // ---- validation & store release ---------------------------------------
        const bool defer = hooks_.validationActive();
        if (is_term) {
            if (!hooks_.validateBB(bb.seq, rec.nextPc, commit_at)) {
                res.violation = Violation{commit_at, pc, seq,
                                          hooks_.violationReason()};
                // Tainted stores of the offending block never reach memory.
                sb_.squash(seq - bb.instrs + 1);
                break;
            }
            sb_.drain(mem_, seq);
            drainStores(seq, commit_at);
            drained_seq = seq;
            bb = BBState{rec.nextPc, 0, 0, ++bb_counter};
        } else if (!defer) {
            sb_.drain(mem_, seq);
            drainStores(seq, commit_at);
            drained_seq = seq;
        }

        if (rec.halted)
            break;
        // The instruction budget stops at the next block boundary, the
        // same points where interrupts / context switches are taken
        // (Sec. IV.A), so a resumed run() restarts at a known entry.
        if (is_term && cfg_.maxInstrs && res.instrs >= cfg_.maxInstrs)
            break;
    }

    return false;
}

RunResult
Core::finish(RunState &st)
{
    // An instruction-budget stop can land mid-block; release the already
    // executed stores so a follow-up run() (e.g., after a context switch)
    // resumes from consistent state.
    if (!st.res.violation) {
        sb_.drain(mem_, st.seq);
        drainStores(st.seq, st.prevCommit);
    }

    RunResult res = std::move(st.res);
    res.cycles = st.prevCommit - st.clockStart;
    clockBase_ = st.prevCommit;
    res.uniqueBranches = st.uniqueBranches.size();
    res.halted = machine_.halted() && !res.violation;
    state_.reset();
    return res;
}

} // namespace rev::cpu
