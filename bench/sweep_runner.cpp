#include "bench/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <tuple>

#include "bench/golden.hpp"
#include "common/parallel.hpp"
#include "crypto/aes.hpp"
#include "crypto/cubehash.hpp"
#include "program/trace.hpp"
#include "sig/sigstore.hpp"
#include "workloads/generator.hpp"
#include "workloads/scheduler.hpp"

namespace rev::bench
{

namespace
{

constexpr std::size_t kNone = ~std::size_t{0};

/** Build inputs of a signature-table prototype, beside the program. */
struct TableKey
{
    u64 cpuSeed = 0;
    u64 toolchainSeed = 0;
    prog::SplitLimits limits;
    unsigned hashRounds = 0;
    sig::ValidationMode mode = sig::ValidationMode::Full;

    bool operator==(const TableKey &) const = default;
};

TableKey
tableKeyOf(const core::SimConfig &cfg)
{
    return TableKey{cfg.cpuSeed, cfg.toolchainSeed, cfg.core.splitLimits,
                    cfg.rev.chg.hashRounds, cfg.mode};
}

/**
 * One shared signature-table prototype and its warmed memory image
 * (program + loaded tables). Tables are deterministic in their build
 * inputs, so every job with the same key shares one build; page versions
 * of a forked image come out identical to a per-job load, so forked runs
 * are bit-identical to cold-loaded ones.
 */
struct Table
{
    TableKey key;
    std::optional<sig::SigStore> store;
    SparseMemory image;
    double buildSeconds = 0;
};

/** Everything the jobs of one program share. */
struct ProgramPlan
{
    workloads::WorkloadProfile key; ///< what the program is generated from
    std::optional<prog::Program> program;
    StaticNumbers statics;
    std::deque<Table> tables; ///< complete before the builds start
    SparseMemory baseImage;   ///< program image alone (no-validation jobs)
};

/** Program index, instruction budget, split limits. */
using GroupKey = std::tuple<std::size_t, u64, prog::SplitLimits>;

/**
 * The one-shot jobs of one program that commit the same instruction
 * stream: same budget, same split limits. The recorder is the group's
 * first with-validation job: validation drains stores only at block
 * boundaries (cpu/core.cpp), the lowest drain watermark of any config,
 * so its recorded forwarding distances dominate every replay
 * (trace.hpp) whatever its other parameters.
 */
struct ReplayGroup
{
    GroupKey key;
    std::size_t members = 0;
    std::size_t recordJob = kNone;
    std::optional<prog::Trace> trace; ///< kept until the run ends
};

/** Runtime state of one job. */
struct Slot
{
    std::size_t plan = 0;
    std::size_t table = kNone;
    std::size_t group = kNone;
    core::SimConfig cfg; ///< the job's, plus the runner's harness pointers
    JobResult result;
};

/** Index of the element of @p items keyed @p key, appended if none is. */
template <typename T, typename K>
std::size_t
indexOf(std::deque<T> &items, const K &key)
{
    for (std::size_t i = 0; i < items.size(); ++i)
        if (items[i].key == key)
            return i;
    items.emplace_back().key = key;
    return items.size() - 1;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::vector<workloads::WorkloadProfile>
selectProfiles(const std::vector<std::string> &wanted)
{
    std::vector<workloads::WorkloadProfile> out;
    for (auto &p : workloads::spec2006Profiles())
        if (wanted.empty() || std::count(wanted.begin(), wanted.end(), p.name))
            out.push_back(std::move(p));
    for (const auto &name : wanted)
        if (std::none_of(out.begin(), out.end(),
                         [&](const auto &p) { return p.name == name; }))
            fatal("sweep: unknown benchmark '", name, "'");
    return out;
}

/**
 * Fold one run() quantum into @p out. Core counters are per run(), so
 * they add up; validator and memory-system counters are cumulative since
 * resetStats(), so the latest quantum's values stand.
 */
void
addQuantum(JobResult &out, const core::SimResult &res)
{
    RunNumbers &r = out.run;
    r.cycles += res.run.cycles;
    r.instrs += res.run.instrs;
    r.committedBranches += res.run.committedBranches;
    r.uniqueBranches += res.run.uniqueBranches;
    r.mispredicts += res.run.mispredicts;
    r.ipc = r.cycles ? static_cast<double>(r.instrs) / r.cycles : 0.0;
    r.scCompleteMisses = res.rev.scCompleteMisses;
    r.scPartialMisses = res.rev.scPartialMisses;
    r.commitStallCycles = res.validation.commitStallCycles;
    r.scFillAccesses = res.scFillAccesses;
    r.scFillL1Misses = res.scFillL1Misses;
    r.scFillL2Misses = res.scFillL2Misses;
    r.violations = res.validation.violations;
    out.shadowSpills = res.rev.shadowSpills;
    out.shadowRefills = res.rev.shadowRefills;
    out.sigTableBytes = res.sigTableBytes;
}

/** Simulate @p job on @p program under @p slot's config. */
void
simulate(const prog::Program &program, const Job &job, Slot &slot)
{
    core::Simulator sim(program, slot.cfg);
    if (job.measureInstrs) {
        sim.run(); // warm-up quantum
        sim.resetStats();
    }
    do {
        const core::SimResult res = sim.run();
        if (res.run.violation)
            fatal("bench sweep: unexpected violation in ", job.program.name,
                  " (", job.tag, "): ", res.run.violation->reason);
        addQuantum(slot.result, res);
        if (res.run.halted)
            break;
    } while (slot.result.run.instrs < job.measureInstrs);
    slot.result.replayed = sim.replayActive();
    for (unsigned c = 0; c < sim.numCores(); ++c)
        slot.result.xcoreScFillWaitCycles +=
            sim.memsys().xcoreScFillWaitCycles(c);
}

StaticNumbers
computeStatics(const prog::Program &program, const prog::Cfg *prebuilt)
{
    std::optional<prog::Cfg> own;
    if (!prebuilt) {
        own.emplace(prog::buildCfg(program.main()));
        prebuilt = &*own;
    }
    const prog::CfgStats cs = prebuilt->stats();
    StaticNumbers st;
    st.numBlocks = cs.numBlocks;
    st.numTerminators = cs.numTerminators;
    st.instrsPerBlock = cs.avgInstrsPerBlock;
    st.succsPerBlock = cs.avgSuccsPerBlock;
    st.codeBytes = program.main().codeSize;
    st.computedSites = cs.numComputedSites;
    st.branchSites = cs.numBranchInstrs;
    return st;
}

/** The paper sweep's job list: the selected benchmarks x kAllConfigs,
 *  benchmark-major. */
std::vector<Job>
sweepJobs(const SweepOptions &opts)
{
    std::vector<Job> jobs;
    for (const auto &prof : selectProfiles(opts.benchmarks)) {
        for (Config c : kAllConfigs) {
            Job job;
            job.program = prof;
            job.cfg = sweepSimConfig(c, opts.instrBudget);
            if (job.cfg.backend != validate::Backend::Null)
                job.cfg.backend = opts.backend;
            job.tag = configName(c);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

} // namespace

SweepRunner::SweepRunner(SweepOptions opts) : opts_(std::move(opts)) {}

std::vector<JobResult>
SweepRunner::runJobs(const std::vector<Job> &jobs)
{
    const auto runStart = std::chrono::steady_clock::now();
    threadsUsed_ = resolveThreadCount(opts_.threads);
    phases_ = SweepPhaseTimings{};

    // Key every job to its program, table and replay group. Deques keep
    // the images jobs point into where they are.
    std::deque<ProgramPlan> plans;
    std::deque<ReplayGroup> groups;
    std::vector<Slot> slots(jobs.size());
    const bool replay = prog::replayEnabledFromEnv();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Job &job = jobs[j];
        Slot &slot = slots[j];
        slot.cfg = job.cfg;
        slot.plan = indexOf(plans, job.program);
        if (job.cfg.backend != validate::Backend::Null)
            slot.table = indexOf(plans[slot.plan].tables, tableKeyOf(job.cfg));
        // Steady-state and multicore jobs run direct: a GroupKey does
        // not tell core counts apart.
        if (!replay || job.measureInstrs || job.cfg.numCores > 1)
            continue;
        slot.group = indexOf(groups, GroupKey{slot.plan, job.cfg.core.maxInstrs,
                                              job.cfg.core.splitLimits});
        ReplayGroup &group = groups[slot.group];
        ++group.members;
        if (group.recordJob == kNone &&
            job.cfg.backend != validate::Backend::Null)
            group.recordJob = j;
    }

    // Phase 1: generate the programs, in parallel. Programs are
    // immutable afterwards; concurrent simulators only read them.
    std::mutex logMu;
    std::atomic<std::size_t> genDone{0};
    const auto genStart = std::chrono::steady_clock::now();
    parallelFor(plans.size(), threadsUsed_, [&](std::size_t k) {
        ProgramPlan &plan = plans[k];
        plan.program = workloads::buildProgram(plan.key);
        if (opts_.progress) {
            const std::size_t done = genDone.fetch_add(1) + 1;
            std::lock_guard<std::mutex> lock(logMu);
            std::fprintf(stderr, "[sweep] generated %-12s (%zu/%zu)\n",
                         plan.key.name.c_str(), done, plans.size());
        }
    });
    phases_.generateSeconds = secondsSince(genStart);

    // Phase 1.5: build every prototype, serially within a program so a
    // table reuses the CFGs (and block hashes at equal rounds) of the
    // program's first table with the same split limits, its donor. The
    // statics ride along: with default split limits and a single-module
    // program, a prototype's main-module CFG is exactly the CFG the
    // statics are derived from.
    const auto protoStart = std::chrono::steady_clock::now();
    parallelFor(plans.size(), threadsUsed_, [&](std::size_t k) {
        ProgramPlan &plan = plans[k];
        auto firstWith = [&](const prog::SplitLimits &limits) {
            return std::find_if(
                plan.tables.begin(), plan.tables.end(),
                [&](const Table &t) { return t.key.limits == limits; });
        };
        for (Table &t : plan.tables) {
            const Table &donor = *firstWith(t.key.limits);
            const auto t0 = std::chrono::steady_clock::now();
            t.store.emplace(*plan.program, t.key.mode,
                            crypto::KeyVault(t.key.cpuSeed),
                            t.key.toolchainSeed, t.key.limits,
                            t.key.hashRounds,
                            &donor == &t ? nullptr : &*donor.store);
            t.buildSeconds = secondsSince(t0);
        }
        const auto dflt = firstWith(prog::SplitLimits{});
        const bool reuse = dflt != plan.tables.end() &&
                           plan.program->modules().size() == 1;
        plan.statics = computeStatics(
            *plan.program,
            reuse ? dflt->store->moduleSigs().front().cfg.get() : nullptr);
    });
    phases_.protoSeconds = secondsSince(protoStart);

    // Phase 1.6: load each program's image once, plus a table-loaded
    // fork per prototype. Every job COW-forks its image instead of
    // re-depositing the same bytes page by page.
    const auto imageStart = std::chrono::steady_clock::now();
    parallelFor(plans.size(), threadsUsed_, [&](std::size_t k) {
        ProgramPlan &plan = plans[k];
        plan.program->loadInto(plan.baseImage);
        for (Table &t : plan.tables) {
            t.image = plan.baseImage.fork();
            t.store->loadInto(t.image);
        }
    });
    phases_.imageSeconds = secondsSince(imageStart);

    // Attach the job's shared prototype and warmed image. Both are
    // immutable from here on; concurrent jobs only share or fork them.
    auto attach = [&](Slot &slot) {
        ProgramPlan &plan = plans[slot.plan];
        if (slot.table != kNone) {
            const Table &t = plan.tables[slot.table];
            slot.cfg.sigStorePrototype = &*t.store;
            slot.cfg.memoryImage = &t.image;
        } else {
            slot.cfg.memoryImage = &plan.baseImage;
        }
    };

    std::atomic<std::size_t> simDone{0};
    auto runSlot = [&](std::size_t j, const char *note) {
        Slot &slot = slots[j];
        const ProgramPlan &plan = plans[slot.plan];
        attach(slot);
        const auto t0 = std::chrono::steady_clock::now();
        simulate(*plan.program, jobs[j], slot);
        slot.result.wallSeconds = secondsSince(t0);
        if (!opts_.progress)
            return;
        const std::size_t done = simDone.fetch_add(1) + 1;
        std::lock_guard<std::mutex> lock(logMu);
        std::fprintf(stderr, "[sweep] %-12s %-7s %6.2fs%s (%zu/%zu)\n",
                     plan.key.name.c_str(), jobs[j].tag.c_str(),
                     slot.result.wallSeconds,
                     note ? note : (slot.result.replayed ? " (replay)" : ""),
                     done, jobs.size());
    };

    // Phase 2a: the jobs nothing waits for and no trace serves: the
    // steady-state jobs (longest first) and one trace recording per
    // replay group that has jobs to replay it.
    std::vector<std::size_t> first, rest;
    for (std::size_t j = 0; j < jobs.size(); ++j)
        if (jobs[j].measureInstrs)
            first.push_back(j);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::size_t g = slots[j].group;
        if (g != kNone && groups[g].recordJob == j && groups[g].members > 1)
            first.push_back(j);
        else if (!jobs[j].measureInstrs)
            rest.push_back(j);
    }

    const auto recordStart = std::chrono::steady_clock::now();
    parallelFor(first.size(), threadsUsed_, [&](std::size_t k) {
        const std::size_t j = first[k];
        Slot &slot = slots[j];
        if (jobs[j].measureInstrs) {
            runSlot(j, " (steady)");
            return;
        }
        prog::TraceRecorder recorder;
        slot.cfg.traceRecorder = &recorder;
        runSlot(j, " (record)");
        slot.cfg.traceRecorder = nullptr;
        prog::Trace trace = recorder.take();
        if (trace.replayable())
            groups[slot.group].trace = std::move(trace);
    });
    phases_.recordSeconds = secondsSince(recordStart);

    // Phase 2b: the remaining one-shot jobs, replaying their group's
    // trace where one was recorded. Each job writes only its own slot.
    const auto replayStart = std::chrono::steady_clock::now();
    parallelFor(rest.size(), threadsUsed_, [&](std::size_t k) {
        Slot &slot = slots[rest[k]];
        if (slot.group != kNone && groups[slot.group].trace)
            slot.cfg.replayTrace = &*groups[slot.group].trace;
        runSlot(rest[k], nullptr);
        slot.cfg.replayTrace = nullptr;
    });
    phases_.replaySeconds = secondsSince(replayStart);

    std::vector<JobResult> results;
    results.reserve(slots.size());
    std::size_t replayed = 0;
    for (Slot &slot : slots) {
        const ProgramPlan &plan = plans[slot.plan];
        slot.result.statics = plan.statics;
        if (slot.table != kNone)
            slot.result.tableBuildSeconds =
                plan.tables[slot.table].buildSeconds;
        replayed += slot.result.replayed;
        results.push_back(slot.result);
    }
    if (opts_.progress)
        std::fprintf(stderr,
                     "[sweep] %zu jobs (%zu replayed) on %u thread%s in "
                     "%.2fs (gen %.2f + proto %.2f + image %.2f + record "
                     "%.2f + replay %.2f), hash=%s batch %s, aes=%s\n",
                     jobs.size(), replayed, threadsUsed_,
                     threadsUsed_ == 1 ? "" : "s", secondsSince(runStart),
                     phases_.generateSeconds, phases_.protoSeconds,
                     phases_.imageSeconds, phases_.recordSeconds,
                     phases_.replaySeconds, crypto::cubehashImpl(),
                     crypto::cubehashBatchImpl(), crypto::aesImpl());
    return results;
}

Sweep
SweepRunner::run(const std::vector<Job> &extra,
                 std::vector<JobResult> *extraResults)
{
    std::vector<Job> jobs = sweepJobs(opts_);
    const std::size_t sweepCount = jobs.size();
    jobs.insert(jobs.end(), extra.begin(), extra.end());
    const std::vector<JobResult> results = runJobs(jobs);

    // Assemble deterministically: sweepJobs() lays the jobs out
    // benchmark-major in kAllConfigs order.
    Sweep sweep;
    sweep.instrBudget = opts_.instrBudget;
    timings_.clear();
    for (std::size_t j = 0; j < sweepCount; ++j) {
        const std::string &bench = jobs[j].program.name;
        const Config config = kAllConfigs[j % std::size(kAllConfigs)];
        const JobResult &res = results[j];
        if (config == kAllConfigs[0])
            sweep.benchmarks.push_back(bench);
        sweep.runs[{bench, config}] = res.run;
        StaticNumbers &st =
            sweep.statics.try_emplace(bench, res.statics).first->second;
        if (config == Config::Full32)
            st.tableBytesFull = res.sigTableBytes;
        else if (config == Config::Agg32)
            st.tableBytesAggressive = res.sigTableBytes;
        else if (config == Config::Cfi32)
            st.tableBytesCfi = res.sigTableBytes;
        timings_.push_back({bench, config, res.wallSeconds, res.replayed});
    }
    if (extraResults)
        extraResults->assign(results.begin() + sweepCount, results.end());

    if (opts_.useCache && !writeGolden(sweep, opts_.cachePath))
        warn("sweep: could not write golden snapshot ", opts_.cachePath);
    return sweep;
}

} // namespace rev::bench
