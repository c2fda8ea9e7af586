/**
 * @file
 * The out-of-order core model.
 *
 * Execute-functional, timing-directed: architectural execution happens in
 * program order through the embedded Machine (supplying values and actual
 * branch outcomes), while a timestamp-propagation timing model with
 * explicit finite resources (ROB, IQ, LSQ, fetch queue, FU pools,
 * per-stage widths) computes when each instruction fetches, issues,
 * completes, and commits. Commit is in order; stores are held in the
 * StoreBuffer and released to memory at commit (base core) or at basic-
 * block validation time (REV, Requirement R5). Branch mispredictions stall
 * the front end until the branch resolves plus a redirect penalty;
 * mispredicted-path instructions are not themselves simulated (DESIGN.md,
 * timing-fidelity notes).
 */

#ifndef REV_CPU_CORE_HPP
#define REV_CPU_CORE_HPP

#include <functional>
#include <optional>
#include <string>

#include "common/flat_map.hpp"
#include "cpu/config.hpp"
#include "cpu/predictor.hpp"
#include "cpu/resources.hpp"
#include "mem/memsys.hpp"
#include "program/interp.hpp"
#include "validate/validator.hpp"

namespace rev::cpu
{

/** A detected run-time validation failure. */
struct Violation
{
    Cycle cycle = 0;
    Addr pc = 0;
    SeqNum seq = 0;
    std::string reason;
};

/** Results of one simulation run. */
struct RunResult
{
    Cycle cycles = 0;
    u64 instrs = 0;
    u64 committedBranches = 0; ///< control-flow instructions committed
    u64 uniqueBranches = 0;    ///< distinct control-flow PCs (Fig. 9)
    u64 mispredicts = 0;
    u64 loads = 0;
    u64 stores = 0;
    u64 interrupts = 0; ///< external interrupts taken
    u64 wrongPathFetches = 0; ///< wrong-path instructions fetched
    bool halted = false;
    std::optional<Violation> violation;

    /** cycles counts only this run() invocation (quantum). */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instrs) / cycles : 0.0;
    }
};

/**
 * The core. One instance simulates one program run.
 */
class Core
{
  public:
    /**
     * @param program Program to run (must already be loaded into @p mem).
     * @param mem     Functional memory image.
     * @param memsys  Timing memory hierarchy.
     * @param cfg     Core configuration.
     * @param hooks   Validation backend, or nullptr for the base machine
     *                (an internal NullValidator stands in, so the core
     *                never tests the pointer again).
     * @param core_id Memory-system port this core issues its traffic
     *                through (multicore: one port per core).
     */
    Core(const prog::Program &program, SparseMemory &mem,
         mem::MemorySystem &memsys, const CoreConfig &cfg = {},
         validate::Validator *hooks = nullptr, unsigned core_id = 0);

    /**
     * Hook invoked before each architectural step; attack injectors use it
     * to tamper with memory / machine state at a precise point.
     * Arguments: committed-instruction index and next PC.
     */
    using PreStepHook = std::function<void(u64 instr_index, Addr pc)>;
    void setPreStepHook(PreStepHook hook) { preStep_ = std::move(hook); }

    /**
     * Run to halt, violation, or the configured instruction budget.
     * Resumes a run paused by runUntil(), continuing its accumulated
     * counters and timing frontiers so the final RunResult is identical
     * to an uninterrupted run's.
     */
    RunResult run();

    /**
     * Run until just before the pre-step of committed-instruction index
     * @p index (cumulative across pauses of the same logical run):
     * runSlice() on a directly executing machine. A subsequent run() —
     * here or in a fork of this core — sees @p index as its first
     * pre-step, exactly like a cold run arriving at the same point, so
     * injector hooks fire identically.
     *
     * @return true when paused at @p index; false when the run finished
     *         first (halt / violation / budget), with the final result
     *         stored to @p out when non-null.
     */
    bool runUntil(u64 index, RunResult *out = nullptr);

    /** pause_before value meaning "never pause" (see runSlice()). */
    static constexpr u64 kRunToEnd = ~u64{0};

    /**
     * One scheduling slice: run (or resume) until the run ends or the
     * cumulative committed-instruction count reaches @p pause_before,
     * whichever comes first. run() is runSlice(kRunToEnd, ...). Unlike
     * runUntil() it accepts a replaying machine (a PreStepHook cancels
     * the replay first), so a multicore scheduler can time-slice replayed
     * runs. @return true when paused, false when the run finished (final
     * result stored to @p out when non-null).
     */
    bool runSlice(u64 pause_before, RunResult *out = nullptr);

    /** A runUntil()/runSlice() pause is outstanding (run() resumes it). */
    bool paused() const { return state_.has_value(); }

    /** Committed instructions of the paused run (0 when not paused). */
    u64 committedInstrs() const { return state_ ? state_->res.instrs : 0; }

    prog::Machine &machine() { return machine_; }
    const prog::Machine &machine() const { return machine_; }
    const BranchPredictor &predictor() const { return predictor_; }

    /**
     * Commit cycle of the most recently committed instruction (equals the
     * run's clock base before anything commits). A PreStepHook can read
     * it to timestamp a tamper injection; a later violation's cycle minus
     * this value is the detection latency.
     */
    Cycle lastCommitCycle() const { return lastCommit_; }

    struct BBState
    {
        Addr start = 0;
        unsigned instrs = 0;
        unsigned stores = 0;
        BBSeq seq = 0;
    };

    /** Pending (not yet drained) store records for timing. */
    struct PendingStore
    {
        SeqNum seq;
        Addr addr;
    };

    /**
     * The run loop's complete mid-flight state: resource frontiers,
     * scoreboard, sequence counters, basic-block tracker, and the
     * accumulated partial result. Plain-copyable, so a paused run can be
     * duplicated into a fork.
     */
    struct RunState
    {
        RunState(const CoreConfig &cfg, Addr pc, Cycle clock_base);

        WidthLimiter fetchW, dispatchW, commitW;
        OccupancyRing rob, iq, lsq, fq;
        FuPool alu, fpu, ldPort, stPort;
        std::array<Cycle, isa::kNumArchRegs> regReady{};
        FlatSet<Addr> uniqueBranches; ///< committed control-flow PCs (Fig. 9)
        Cycle fetchResume;   ///< redirect lower bound
        Cycle fetchFrontier; ///< last fetch cycle
        Addr lastLine = kNoAddr;
        Cycle lineReady;
        Cycle prevCommit;
        SeqNum seq = 0;
        SeqNum drainedSeq = 0;
        BBState bb;
        BBSeq bbCounter = 1;
        Cycle nextInterrupt;
        Cycle clockStart; ///< clockBase_ when this logical run began
        RunResult res;    ///< accumulated across pauses
    };

    /**
     * A fork of @p source continuing its paused (or idle) run over
     * @p mem, a fork of the source's memory image, @p memsys, a copy of
     * its memory system, and @p hooks, a fork of its validator:
     * architectural registers, store buffer, predictor, store-drain
     * queue, cycle frontiers and the paused run-loop state are copied;
     * the PreStepHook, trace recorder and replayer are not. A following
     * run() resumes exactly where the source paused.
     */
    Core(const Core &source, SparseMemory &mem, mem::MemorySystem &memsys,
         validate::Validator *hooks);

  private:
    /**
     * The timing/commit loop. Runs @p st forward until the run ends
     * (returns false) or, when @p pause_before is hit, pauses just
     * before that instruction's pre-step (returns true).
     */
    bool loop(RunState &st, u64 pause_before);

    /** Tail drains + result finalization; clears the paused state. */
    RunResult finish(RunState &st);

    /** Issue the D-cache write traffic for stores released to memory. */
    void drainStores(SeqNum up_to, Cycle at);

    const prog::Program &program_;
    SparseMemory &mem_;
    mem::MemorySystem &memsys_;
    unsigned coreId_ = 0;
    CoreConfig cfg_;
    validate::NullValidator nullHooks_; ///< stand-in when no backend given
    validate::Validator &hooks_;

    prog::Machine machine_;
    prog::StoreBuffer sb_;
    BranchPredictor predictor_;
    PreStepHook preStep_;

    std::deque<PendingStore> pendingStores_;

    /** Present between a runUntil() pause and the resuming run(). */
    std::optional<RunState> state_;

    /** End cycle of the previous run() (resumed runs continue from it). */
    Cycle clockBase_ = 0;

    /** Mirror of the run loop's commit frontier (see lastCommitCycle()). */
    Cycle lastCommit_ = 0;
};

} // namespace rev::cpu

#endif // REV_CPU_CORE_HPP
