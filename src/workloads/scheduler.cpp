#include "workloads/scheduler.hpp"

#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "workloads/gen_internal.hpp"
#include "workloads/generator.hpp"

namespace rev::workloads
{

using prog::Assembler;

using namespace gendetail;

namespace
{

// Scheduler-private registers, chosen outside everything the work
// emitters touch (r1..r12 rotate as destinations, r15..r17 and r21..r23
// are the generator conventions, r20 is main's slice counter).
constexpr u8 kTcb = 13;       ///< current thread's context-block address
constexpr u8 kSliceIter = 14; ///< dispatches left in the quantum
constexpr u8 kHart = 18;      ///< hartid (0 unless the Simulator wrote it)

/** Context-block layout: one cache line per thread. */
constexpr i32 kCtxLcg = 0;      ///< thread-private LCG state (r21)
constexpr i32 kCtxCursor = 8;   ///< thread-private data cursor (r23)
constexpr i32 kCtxAcc = 16;     ///< live accumulator (r1)
constexpr i32 kCtxTicks = 24;   ///< quanta this thread has received
constexpr unsigned kCtxBytes = 32;

} // namespace

WorkloadProfile
schedStormProfile()
{
    // Campaign/revsim sized: small static footprint (the oracle re-runs
    // golden streams), branchy work with computed dispatch inside the
    // quanta so every injection class finds targets.
    WorkloadProfile p;
    p.name = "schedstorm";
    p.seed = 23;
    p.numFunctions = 120;
    p.entryFunctions = 8;
    p.minConstructs = 2;
    p.maxConstructs = 4;
    p.straightLen = 6;
    p.callSitesPerFn = 1;
    p.callSpan = 30;
    p.callProb = 0.5;
    p.indirectFnFrac = 0.2;
    p.loopFrac = 0.2;
    p.loopIters = 3;
    p.branchBias = 0.7;
    p.dataFootprint = 1u << 16;
    p.dataStride = 0; // irregular: thread working sets collide in cache
    p.mainIterations = 192; // = scheduling slices
    return p;
}

SchedulerProfile
schedulerProfileFor(const WorkloadProfile &work)
{
    SchedulerProfile p;
    p.work = work;
    p.slices = work.mainIterations;
    return p;
}

bool
isSchedulerWorkload(const std::string &name)
{
    return name.rfind("schedstorm", 0) == 0 || name.rfind("rt-sched", 0) == 0;
}

prog::Program
generateSchedulerWorkload(const SchedulerProfile &profile)
{
    const WorkloadProfile &w = profile.work;
    if (!isPow2(profile.numThreads))
        fatal("scheduler workload '", w.name,
              "': numThreads must be a power of two");
    if (!isPow2(w.entryFunctions))
        fatal("scheduler workload '", w.name,
              "': entryFunctions must be a power of two");
    if (!isPow2(w.dataFootprint))
        fatal("scheduler workload '", w.name,
              "': dataFootprint must be a power of two");
    if (w.numFunctions <= w.entryFunctions)
        fatal("scheduler workload '", w.name, "': too few functions");
    if (profile.slices == 0 || profile.sliceIters == 0)
        fatal("scheduler workload '", w.name, "': empty schedule");

    Assembler a(prog::kDefaultCodeBase);
    Gen g(w, a);

    // ---- main: the timer-tick loop ---------------------------------------
    a.label("main");
    a.movi(kIter, static_cast<i32>(profile.slices));
    a.movi(kDataBase, static_cast<i32>(prog::kHeapBase));
    // hartid: reads 0 from untouched memory, the core index when the
    // Simulator published it at kSchedCoreIdWord.
    a.movi(kT1, static_cast<i32>(kSchedCoreIdWord));
    a.ld(kHart, kT1, 0);

    const prog::Label tick = a.newLabel();
    const prog::Label quantum = a.newLabel();
    const prog::Label tcb = a.newLabel();
    a.bind(tick);
    // Next thread: (slice + hartid) mod T. Each core walks the run queue
    // round-robin from a hartid-dependent phase, so the same guest thread
    // lands on different cores on different ticks (migration).
    a.add(kT0, kIter, kHart);
    a.andi(kT0, kT0, static_cast<i32>(profile.numThreads - 1));
    a.shli(kT0, kT0, 5); // kCtxBytes == 32
    a.la(kTcb, tcb);
    a.add(kTcb, kTcb, kT0);

    // Context restore: the thread's control state (LCG drives all
    // data-dependent branches), data cursor, and live accumulator.
    a.ld(kLcg, kTcb, kCtxLcg);
    a.ld(kCursor, kTcb, kCtxCursor);
    a.ld(1, kTcb, kCtxAcc);

    // One quantum: sliceIters indirect dispatches into the work set.
    a.movi(kSliceIter, static_cast<i32>(profile.sliceIters));
    a.bind(quantum);
    lcgStep(g);
    a.shri(kT0, kLcg, 9);
    // Fold the hartid into the entry selection as well: a pure schedule
    // rotation is permutation-invariant over a whole run (every thread
    // still gets the same quanta), but a migrated thread really does
    // execute different code on a different core (per-core run queues,
    // work stealing), so cores must diverge in WHAT they run, not just
    // in what order.
    a.add(kT0, kT0, kHart);
    a.andi(kT0, kT0, static_cast<i32>(w.entryFunctions - 1));
    a.shli(kT0, kT0, 3);
    a.la(kT1, "entry_table");
    a.add(kT1, kT1, kT0);
    a.ld(kT1, kT1, 0);
    const Addr dispatch = a.callr(kT1);
    a.annotateIndirect(dispatch, std::span(g.fns).first(w.entryFunctions));
    a.addi(kSliceIter, kSliceIter, -1);
    a.bne(kSliceIter, 0, quantum);

    // Context save (the "timer interrupt" firing).
    a.st(kLcg, kTcb, kCtxLcg);
    a.st(kCursor, kTcb, kCtxCursor);
    a.st(1, kTcb, kCtxAcc);
    a.ld(kT0, kTcb, kCtxTicks);
    a.addi(kT0, kT0, 1);
    a.st(kT0, kTcb, kCtxTicks);

    a.addi(kIter, kIter, -1);
    a.bne(kIter, 0, tick);
    a.halt();

    // ---- per-thread work functions (the generator.cpp construct mix) ------
    for (unsigned i = 0; i < w.numFunctions; ++i)
        emitFunction(g, i);

    // ---- data: context blocks, dispatch + switch tables -------------------
    a.beginData();
    a.align(8);
    a.bind(tcb);
    for (unsigned t = 0; t < profile.numThreads; ++t) {
        // Distinct LCG seeds per thread: each thread walks its own paths
        // through the shared work set, so a switch really changes the
        // dynamic control flow, not just a counter.
        a.word64((w.seed ^ 0x2545f491u) * 0x9e3779b97f4a7c15ull + t);
        a.word64(0); // cursor
        a.word64(0); // accumulator
        a.word64(0); // ticks
        static_assert(kCtxBytes == 4 * sizeof(u64), "context-block layout");
    }
    a.label("entry_table");
    for (unsigned e = 0; e < w.entryFunctions; ++e)
        a.word64Label(g.fns[e]);
    for (const auto &[tbl, cases] : g.tables) {
        a.bind(tbl);
        for (prog::Label c : cases)
            a.word64Label(c);
    }

    prog::Program p;
    p.addModule(a.finalize(w.name, "main"));
    return p;
}

prog::Program
buildProgram(const WorkloadProfile &profile)
{
    if (isSchedulerWorkload(profile.name))
        return generateSchedulerWorkload(schedulerProfileFor(profile));
    return generateWorkload(profile);
}

} // namespace rev::workloads
