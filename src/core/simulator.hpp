/**
 * @file
 * Top-level simulation harness: wires a Program, its signature tables,
 * the functional memory, the memory hierarchy, the OoO core, and the
 * selected validation backend together. This is the primary entry point
 * of the library.
 *
 * Typical use:
 *
 *   prog::Program p = ...;             // build or generate a program
 *   core::SimConfig cfg;
 *   cfg.backend = validate::Backend::Rev;  // the default
 *   core::Simulator sim(p, cfg);
 *   core::SimResult r = sim.run();
 *   std::cout << r.run.ipc();
 */

#ifndef REV_CORE_SIMULATOR_HPP
#define REV_CORE_SIMULATOR_HPP

#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "cpu/core.hpp"
#include "program/trace.hpp"
#include "validate/registry.hpp"

namespace rev::core
{

/** Simulation configuration. */
struct SimConfig
{
    cpu::CoreConfig core;
    mem::MemConfig mem;
    validate::RevConfig rev;     ///< Backend::Rev parameters
    validate::LoFatConfig lofat; ///< Backend::LoFat parameters
    sig::ValidationMode mode = sig::ValidationMode::Full;

    /** Which validation backend to attach (see validate/registry.hpp);
     *  Backend::Null is the paper's base machine. */
    validate::Backend backend = validate::Backend::Rev;

    /**
     * Sec. IV.A strict R5: treat the whole run as a transaction against
     * shadow pages. If the execution fails authentication, the entire
     * memory state is rolled back to its pre-run content (instead of only
     * squashing the offending block's stores). See core/shadow.hpp for
     * the page-granular mechanism itself.
     */
    bool pageShadowing = false;

    /**
     * Number of simulated cores. Each core is a full CoreSlot — its own
     * COW fork of the loaded memory image, its own validator instance
     * (per-core SC-fill traffic), its own OoO core — all contending for
     * the one shared L2/DRAM through per-core memory-system ports. 1 is
     * the historical single-core machine, bit-identical to every pinned
     * golden; N>1 time-slices the slots deterministically (see
     * schedQuantumInstrs).
     */
    unsigned numCores = 1;

    /**
     * Multicore scheduling quantum in committed instructions. The
     * scheduler repeatedly runs the least-advanced slot (ties broken by
     * core id) up to its next quantum boundary, so the cross-core
     * interleaving of memory-system traffic is a pure function of the
     * per-core committed counts — snapshots/forks resume the identical
     * schedule. Ignored at numCores == 1 (the single core runs to
     * completion in one slice).
     */
    u64 schedQuantumInstrs = 64;

    /**
     * When nonzero, the 8-byte word at this address in each core's
     * private memory is set to the core index after load (a hartid
     * register in disguise): workloads read it to diverge per core —
     * e.g. the preemptive-scheduler workload rotates its thread schedule
     * so threads migrate across cores. 0 (default) writes nothing, so
     * single-core goldens and recorded traces are unaffected.
     */
    Addr coreIdAddr = 0;

    u64 cpuSeed = 1;      ///< per-CPU key-vault fuses
    u64 toolchainSeed = 1; ///< per-module key generation

    /**
     * Optional pre-built signature store to share instead of deriving the
     * CFGs and building the tables from scratch (the most expensive part
     * of constructing a Simulator). The prototype must have been built
     * for the same program with the same mode, seeds, split limits, and
     * hash rounds — the table build is deterministic in those inputs, so
     * sharing yields byte-identical tables and therefore identical
     * simulated statistics. The Simulator copies the handle, which shares
     * the prototype's immutable build (no per-job copy); a later
     * reloadProgram() rebuilds copy-on-write, so the prototype never
     * changes. Concurrent simulators may share one prototype. The
     * benchmark sweep uses this to share one build across configs that
     * differ only in timing parameters.
     */
    const sig::SigStore *sigStorePrototype = nullptr;

    /**
     * Optional pre-loaded memory image to COW-fork instead of loading
     * the program image and signature tables page by page. Must hold
     * exactly what this simulator's own load phase would produce — i.e.
     * be the post-load memory of a Simulator built from the same
     * program, mode, seeds, and (shared via @ref sigStorePrototype)
     * table build; requires a prototype whenever the backend needs
     * tables, so image and tables cannot drift apart. The benchmark
     * sweep builds one image per (benchmark, mode) and forks it across
     * every timing config, O(pages touched) instead of O(image bytes).
     * Must outlive the Simulator.
     */
    const SparseMemory *memoryImage = nullptr;

    /**
     * Optional trace recorder: the architectural event stream of the run
     * is appended to it (see program/trace.hpp). Mutually exclusive with
     * @ref replayTrace.
     */
    prog::TraceRecorder *traceRecorder = nullptr;

    /**
     * Optional prover-side measurement sink (validate/stream.hpp): the
     * attached backend serializes its measurement session into it — the
     * header at construction, one record per validated block, and the
     * End seal when the run completes (halts or faults). A standalone
     * StreamVerifier can then re-render the run's verdict from the bytes
     * alone. Must outlive the Simulator.
     */
    validate::MeasurementSink *measurementSink = nullptr;

    /**
     * Optional recorded trace to replay instead of executing semantics.
     * Attached only when it matches this simulation (replayable, same
     * entry PC, instruction budget, split limits, and code-page
     * versions); otherwise the run silently falls back to direct
     * execution — check replayActive() to see which happened. The Trace
     * must outlive the Simulator.
     */
    const prog::Trace *replayTrace = nullptr;
};

/** Results of one simulated run. */
struct SimResult
{
    /**
     * Aggregate run result. At numCores == 1 this is exactly the single
     * core's result. At N>1: cycles is the maximum across cores (wall
     * clock of the machine), the event counters are summed, halted means
     * every core halted cleanly, and violation is the earliest across
     * cores (by cycle, then core id).
     */
    cpu::RunResult run;

    /** Per-core results, one per slot (size == numCores). */
    std::vector<cpu::RunResult> perCore;

    /** Backend-independent counter slice (any backend). */
    validate::ValidationStats validation;

    validate::RevStats rev;     ///< zeros unless the Rev backend ran
    validate::LoFatStats lofat; ///< zeros unless the LoFat backend ran

    // Fig. 10/11 inputs: validation fill/spill traffic through the
    // hierarchy.
    u64 scFillAccesses = 0;
    u64 scFillL1Misses = 0;
    u64 scFillL2Misses = 0;

    u64 sigTableBytes = 0; ///< total signature-table footprint in RAM

    /** pageShadowing: the run failed and memory was rolled back. */
    bool memoryRolledBack = false;
};

class Snapshot;

/**
 * One program, one machine, one validation backend.
 */
class Simulator
{
  public:
    Simulator(const prog::Program &program, const SimConfig &cfg = {});

    /** Run to completion and collect results. */
    SimResult run();

    /**
     * Run forward until just before committed-instruction index
     * @p index (cumulative since construction), so the next run() — or a
     * fork — continues with @p index as its first pre-step, exactly as a
     * cold run arriving there. Callable repeatedly with increasing
     * indices (the campaign's snapshot cursor). Requires direct
     * execution (no replay attached).
     *
     * @return true when paused at @p index; false when the run finished
     *         first (halt / violation / instruction budget).
     *
     * At numCores > 1, @p index addresses core 0's committed stream; the
     * other cores are advanced exactly as far as the deterministic
     * schedule dictates, so a fork resumes the identical interleaving.
     */
    bool runUntil(u64 index);

    /**
     * Capture a Snapshot of the current state — either the initial state
     * (before any run) or a runUntil() pause point. Requires direct
     * execution (no replay attached).
     */
    Snapshot capture() const;

    /** runUntil(@p index) + capture(). Returns nothing when the run
     *  ended before reaching @p index. */
    std::optional<Snapshot> snapshotAt(u64 index);

    /**
     * The Simulator continuing @p snap's run: the snapshot's paused
     * machine itself. A subsequent run() commits exactly the instruction
     * stream a cold run would from the snapshot index on. The snapshot
     * is a sink: pass an lvalue to fork a copy of it (an O(dirty pages)
     * memory fork plus value copies of the rest) and keep it for more
     * forks, or std::move() it in for its last fork, which then copies
     * nothing.
     */
    static std::unique_ptr<Simulator> forkFrom(Snapshot snap);

    /**
     * The program object changed (a module was added by the dynamic
     * linker, or trusted code generation produced new functions): reload
     * every module image into memory, rebuild + reload the signature
     * tables, and refresh the backend's cached state (Sec. IV.B/IV.E).
     * Safe to call from a pre-step hook while a run is in progress. The
     * rebuild is private to this simulator (copy-on-write): a prototype,
     * snapshot or fork sharing the previous build is unaffected.
     */
    void reloadProgram();

    /**
     * Snapshot every component's statistics (caches, TLBs, DRAM,
     * predictor, backend components, backend counters) as structured
     * (name, value) rows. This is the programmatic interface; dumpStats()
     * is just stats().dump(os).
     */
    stats::StatSet stats() const;

    /**
     * Dump every component's statistics (caches, TLBs, DRAM, predictor,
     * backend components, backend counters) as "name value" rows.
     */
    void dumpStats(std::ostream &os) const;

    /**
     * Zero every statistic while keeping all warmed state (caches, TLBs,
     * SC, predictor tables): run a warm-up quantum, resetStats(), then
     * measure a steady-state quantum.
     */
    void resetStats();

    /** Number of core slots. */
    unsigned numCores() const { return static_cast<unsigned>(slots_.size()); }

    /** Core @p id's core model (core 0 by default). */
    cpu::Core &core(unsigned id = 0) { return *slots_[id]->core; }

    /** The attached backend of core @p id (never null; NullValidator
     *  when none). */
    validate::Validator *validator(unsigned id = 0)
    {
        return slots_[id]->validator.get();
    }
    const validate::Validator *validator(unsigned id = 0) const
    {
        return slots_[id]->validator.get();
    }

    /** Core @p id's REV engine, or nullptr when another backend is
     *  attached. */
    validate::RevValidator *engine(unsigned id = 0)
    {
        return slots_[id]->revEngine;
    }

    /** Core @p id's LO-FAT engine, or nullptr when another backend is
     *  attached. */
    validate::LoFatValidator *lofat(unsigned id = 0)
    {
        return slots_[id]->lofatEngine;
    }

    SparseMemory &memory(unsigned id = 0) { return slots_[id]->mem; }
    const SparseMemory &memory(unsigned id = 0) const
    {
        return slots_[id]->mem;
    }
    mem::MemorySystem &memsys() { return memsys_; }
    const sig::SigStore *sigStore() const
    {
        return store_ ? &*store_ : nullptr;
    }

    /** True while core 0 is consuming cfg.replayTrace (false when the
     *  trace did not attach or a PreStepHook canceled the replay). */
    bool replayActive() const
    {
        return slots_.front()->core->machine().replaying();
    }

  private:
    friend class Snapshot; // holds a paused fork

    /**
     * One core's private column of the machine: its COW memory image,
     * its validator instance, its OoO core, its replay cursor, and —
     * once its run ends inside the slice scheduler — its final result.
     * Heap-allocated so the references the core/validator hold into the
     * slot's memory stay stable.
     */
    struct CoreSlot
    {
        SparseMemory mem;      ///< private functional image
        SparseMemory pristine; ///< pre-run snapshot (pageShadowing only)
        std::unique_ptr<validate::Validator> validator;
        validate::RevValidator *revEngine = nullptr;     ///< typed view
        validate::LoFatValidator *lofatEngine = nullptr; ///< typed view
        std::unique_ptr<cpu::Core> core;
        std::unique_ptr<prog::TraceReplayer> replayer;
        std::optional<cpu::RunResult> finished; ///< run ended in a slice
    };

    /**
     * Fork constructor: a paused, detached copy of @p source. Every slot
     * copies itself over the fork's own memory (a COW fork of the
     * source's), memory system and store handle; the harness attachments
     * (recorder, replay, measurement sink, prototype, image) and the
     * cores' PreStepHooks are left behind. See Snapshot.
     */
    Simulator(const Simulator &source);

    /** Create the configured backend over @p slot's components — a fork
     *  of @p source when given — and wire the typed engine views (shared
     *  by both constructors). */
    void createValidator(CoreSlot &slot, unsigned core_id,
                         const validate::Validator *source = nullptr);

    /** The slot the deterministic scheduler runs next: the unfinished
     *  slot with the smallest (completed quanta, core id). Null when
     *  every slot's run has ended. */
    CoreSlot *nextToRun();

    /** Fold the per-slot final results and counters into a SimResult
     *  (recorder finish, measurement seals, page-shadow rollback). */
    SimResult aggregate();

    /** Does @p t describe the architectural run a core over @p mem would
     *  execute here? */
    bool traceAttachable(const prog::Trace &t, const SparseMemory &mem) const;

    CoreSlot &slot0() { return *slots_.front(); }
    const CoreSlot &slot0() const { return *slots_.front(); }

    const prog::Program &program_;
    SimConfig cfg_;

    mem::MemorySystem memsys_;
    crypto::KeyVault vault_;
    /** Handle on this simulator's table build (empty when the backend
     *  needs no tables). Validators reference it; its address is stable. */
    std::optional<sig::SigStore> store_;
    std::vector<std::unique_ptr<CoreSlot>> slots_; ///< core-id order
};

/**
 * A paused machine: a detached fork of a Simulator taken at a
 * committed-instruction boundary (Simulator::capture() /
 * snapshotAt()). Nothing runs it; it exists to be forked. Any number of
 * Simulators can be forked from one snapshot (Simulator::forkFrom()),
 * each continuing the run independently — bit-identical to a cold run
 * that executed the same prefix.
 *
 * Capture and fork are the same operation, copy-and-rebind: each
 * component copies its mid-run state over the new machine's COW memory
 * fork, memory-system copy and store handle. Copying a Snapshot is a
 * fork of its machine; moving one (or forkFrom(std::move(snap))) hands
 * the paused machine over and copies nothing.
 *
 * Self-contained: the machine shares the (immutable) signature-table
 * build and the COW page set by refcount, so it stays valid after the
 * Simulator it was captured from is destroyed or reloads its program
 * (the rebuild is copy-on-write; forks keep validating against the
 * tables captured here). Only the Program object is borrowed and must
 * outlive the snapshot and its forks.
 */
class Snapshot
{
  public:
    /** A fork of @p other's paused machine; @p other stays usable for
     *  further forks. */
    Snapshot(const Snapshot &other);
    Snapshot(Snapshot &&) = default;
    Snapshot &operator=(Snapshot &&) = default;

    u64 instrIndex = 0; ///< core 0's committed instructions at capture

    /** The paused machine, for inspection. */
    const Simulator &machine() const { return *machine_; }

  private:
    friend class Simulator; // capture() and forkFrom()

    /** A paused fork of @p sim — see Simulator::capture(). */
    explicit Snapshot(const Simulator &sim);

    std::unique_ptr<Simulator> machine_;
};

inline std::optional<Snapshot>
Simulator::snapshotAt(u64 index)
{
    if (!runUntil(index))
        return std::nullopt;
    return capture();
}

inline std::unique_ptr<Simulator>
Simulator::forkFrom(Snapshot snap)
{
    REV_ASSERT(snap.machine_, "forkFrom() of a moved-from snapshot");
    return std::move(snap.machine_);
}

} // namespace rev::core

#endif // REV_CORE_SIMULATOR_HPP
