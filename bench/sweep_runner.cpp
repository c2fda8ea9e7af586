#include "bench/sweep_runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include <unistd.h>

#include "bench/sweep_cache.hpp"
#include "common/parallel.hpp"
#include "program/trace.hpp"
#include "sig/sigstore.hpp"
#include "workloads/generator.hpp"

namespace rev::bench
{

namespace
{

constexpr std::size_t kNoJob = ~std::size_t{0};

/** Build inputs a signature-store prototype was derived from. */
struct ProtoParams
{
    u64 cpuSeed = 0;
    u64 toolchainSeed = 0;
    prog::SplitLimits limits;
    unsigned hashRounds = 0;

    bool operator==(const ProtoParams &) const = default;
};

/** Everything per-benchmark the job matrix needs. */
struct BenchPlan
{
    workloads::WorkloadProfile profile;
    u64 staticKey = 0;
    bool staticsFromCache = false;
    bool needProgram = false;
    std::optional<prog::Program> program;
    StaticNumbers statics;

    // Signature tables are deterministic in (program, mode, seeds,
    // limits, hash rounds), so configs differing only in timing
    // parameters share one build: prototypes are built once per mode
    // here, and each job's Simulator shares the matching one's build.
    std::optional<ProtoParams> protoParams;
    std::optional<crypto::KeyVault> protoVault;
    std::map<sig::ValidationMode, sig::SigStore> protos;

    // Warmed memory images, loaded once and COW-forked by every job
    // (SimConfig::memoryImage): the program image alone for non-REV
    // jobs, program + loaded tables per validation mode. Page versions
    // come out identical to a per-job load, so forked runs are
    // bit-identical to cold-loaded ones.
    bool hasImages = false;
    SparseMemory baseImage;
    std::map<sig::ValidationMode, SparseMemory> modeImages;

    // Execute-once state: the record job's trace, shared read-only by
    // every replay job of this benchmark. Spilled traces are reloaded
    // lazily by the first replay worker and released once the last one
    // finishes (traceUsers counts the outstanding phase-2b jobs).
    std::size_t recordJobIdx = kNoJob;
    std::shared_ptr<prog::Trace> trace;
    std::string spillPath;
    bool spilled = false;
    std::mutex traceMu;
    std::size_t traceUsers = 0;
};

ProtoParams
protoParamsOf(const core::SimConfig &cfg)
{
    return ProtoParams{cfg.cpuSeed, cfg.toolchainSeed, cfg.core.splitLimits,
                       cfg.rev.chg.hashRounds};
}

/** One cell of the job matrix. */
struct Job
{
    std::size_t benchIdx = 0;
    Config config = Config::Base;
    core::SimConfig cfg;
    u64 key = 0;
    bool cached = false;
    bool replayed = false;
    CachedRun result;
    double wallSeconds = 0;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::size_t
spillThresholdBytes()
{
    const char *env = std::getenv("REV_TRACE_SPILL_MB");
    if (!env)
        return std::size_t{64} << 20;
    return static_cast<std::size_t>(std::strtoull(env, nullptr, 10)) << 20;
}

std::vector<workloads::WorkloadProfile>
selectProfiles(const std::vector<std::string> &wanted)
{
    auto all = workloads::spec2006Profiles();
    if (wanted.empty())
        return all;
    for (const auto &name : wanted) {
        bool known = false;
        for (const auto &p : all)
            known = known || p.name == name;
        if (!known)
            fatal("sweep: unknown benchmark '", name, "'");
    }
    std::vector<workloads::WorkloadProfile> out;
    for (auto &p : all) {
        for (const auto &name : wanted) {
            if (p.name == name) {
                out.push_back(std::move(p));
                break;
            }
        }
    }
    return out;
}

CachedRun
simulateJob(const prog::Program &program, const Job &job,
            const std::string &bench, bool *replayed = nullptr)
{
    core::Simulator sim(program, job.cfg);
    const core::SimResult res = sim.run();
    if (replayed)
        *replayed = sim.replayActive();
    if (res.run.violation)
        fatal("bench sweep: unexpected violation in ", bench, " (",
              configName(job.config), "): ", res.run.violation->reason);

    CachedRun out;
    RunNumbers &r = out.numbers;
    r.ipc = res.run.ipc();
    r.cycles = res.run.cycles;
    r.instrs = res.run.instrs;
    r.committedBranches = res.run.committedBranches;
    r.uniqueBranches = res.run.uniqueBranches;
    r.mispredicts = res.run.mispredicts;
    r.scCompleteMisses = res.rev.scCompleteMisses;
    r.scPartialMisses = res.rev.scPartialMisses;
    r.commitStallCycles = res.validation.commitStallCycles;
    r.scFillAccesses = res.scFillAccesses;
    r.scFillL1Misses = res.scFillL1Misses;
    r.scFillL2Misses = res.scFillL2Misses;
    r.violations = res.validation.violations;
    out.sigTableBytes = res.sigTableBytes;
    return out;
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

std::string
spillPathFor(const std::string &bench)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::temp_directory_path(ec);
    if (ec)
        dir = ".";
    return (dir / ("rev-trace-" + bench + "-" +
                   std::to_string(::getpid()) + ".bin"))
        .string();
}

} // namespace

SweepRunner::SweepRunner(SweepOptions opts) : opts_(std::move(opts)) {}

Sweep
SweepRunner::run()
{
    const auto sweepStart = std::chrono::steady_clock::now();
    threadsUsed_ = resolveThreadCount(opts_.threads);
    timings_.clear();
    phases_ = SweepPhaseTimings{};
    cacheHits_ = 0;

    SweepCache cache(opts_.cachePath);
    if (opts_.useCache)
        cache.load();

    // Build the job matrix and satisfy what we can from the cache.
    // Plans carry a mutex, so they live behind stable pointers.
    std::vector<std::unique_ptr<BenchPlan>> plans;
    std::vector<Job> jobs;
    for (auto &prof : selectProfiles(opts_.benchmarks)) {
        auto plan = std::make_unique<BenchPlan>();
        plan->profile = std::move(prof);
        plan->staticKey = staticCacheKey(plan->profile);
        if (const StaticNumbers *st =
                cache.findStatic(plan->profile.name, plan->staticKey)) {
            plan->statics = *st;
            plan->staticsFromCache = true;
        } else {
            plan->needProgram = true;
        }

        const std::size_t benchIdx = plans.size();
        for (Config c : kAllConfigs) {
            Job job;
            job.benchIdx = benchIdx;
            job.config = c;
            job.cfg = sweepSimConfig(c, opts_.instrBudget);
            if (job.cfg.withRev)
                job.cfg.backend = opts_.backend;
            job.key = runCacheKey(plan->profile, job.cfg);
            if (const CachedRun *hit =
                    cache.findRun(plan->profile.name, c, job.key)) {
                job.cached = true;
                job.result = *hit;
                ++cacheHits_;
            } else {
                plan->needProgram = true;
            }
            jobs.push_back(std::move(job));
        }
        plans.push_back(std::move(plan));
    }

    // Phase 1: generate the programs still needed, in parallel across
    // benchmarks. Programs are immutable afterwards; concurrent
    // simulators only read them.
    std::vector<std::size_t> genIdx;
    for (std::size_t i = 0; i < plans.size(); ++i)
        if (plans[i]->needProgram)
            genIdx.push_back(i);

    std::mutex logMu;
    std::atomic<std::size_t> genDone{0};
    const auto genStart = std::chrono::steady_clock::now();
    parallelFor(genIdx.size(), threadsUsed_, [&](std::size_t k) {
        BenchPlan &plan = *plans[genIdx[k]];
        plan.program = workloads::generateWorkload(plan.profile);
        if (opts_.progress) {
            const std::size_t done = genDone.fetch_add(1) + 1;
            std::lock_guard<std::mutex> lock(logMu);
            std::fprintf(stderr, "[sweep] generated %-12s (%zu/%zu)\n",
                         plan.profile.name.c_str(), done, genIdx.size());
        }
    });
    phases_.generateSeconds = secondsSince(genStart);

    // Phase 1.5: one signature-table build per (benchmark, mode). The
    // first mode of a benchmark pays the CFG derivation and the per-block
    // hashing; later modes reuse both through the donor. Plans build
    // independently, so fan out across benchmarks. The statics of a plan
    // ride along here: with default split limits and a single-module
    // program, the prototype's main-module CFG is exactly the CFG the
    // statics are derived from, so it is not derived twice.
    std::vector<std::size_t> protoIdx;
    for (std::size_t i = 0; i < plans.size(); ++i)
        if (plans[i]->program)
            protoIdx.push_back(i);
    const auto protoStart = std::chrono::steady_clock::now();
    parallelFor(protoIdx.size(), threadsUsed_, [&](std::size_t k) {
        BenchPlan &plan = *plans[protoIdx[k]];
        for (Job &job : jobs) {
            if (job.benchIdx != protoIdx[k] || job.cached ||
                !job.cfg.withRev)
                continue;
            const ProtoParams params = protoParamsOf(job.cfg);
            if (!plan.protoParams) {
                plan.protoParams = params;
                plan.protoVault.emplace(params.cpuSeed);
            } else if (*plan.protoParams != params) {
                continue; // heterogeneous seeds/limits: job builds its own
            }
            if (plan.protos.count(job.cfg.mode))
                continue;
            const sig::SigStore *donor =
                plan.protos.empty() ? nullptr : &plan.protos.begin()->second;
            plan.protos.try_emplace(job.cfg.mode, *plan.program,
                                    job.cfg.mode, *plan.protoVault,
                                    params.toolchainSeed, params.limits,
                                    params.hashRounds, donor);
        }
        if (!plan.staticsFromCache) {
            const prog::Cfg *main_cfg = nullptr;
            if (!plan.protos.empty() &&
                plan.program->modules().size() == 1 &&
                plan.protoParams->limits == prog::SplitLimits{})
                main_cfg =
                    plan.protos.begin()->second.moduleSigs().front().cfg.get();
            plan.statics = computeStatics(*plan.program, main_cfg);
        }
    });
    phases_.protoSeconds = secondsSince(protoStart);

    // Phase 1.6: load each benchmark's shared memory images once — the
    // program image alone, plus a table-loaded fork per built mode.
    // Every job COW-forks its image (SimConfig::memoryImage) instead of
    // re-depositing the same bytes page by page.
    const auto imageStart = std::chrono::steady_clock::now();
    parallelFor(protoIdx.size(), threadsUsed_, [&](std::size_t k) {
        BenchPlan &plan = *plans[protoIdx[k]];
        plan.program->loadInto(plan.baseImage);
        for (const auto &[mode, proto] : plan.protos) {
            SparseMemory img = plan.baseImage.fork();
            proto.loadInto(img);
            plan.modeImages.emplace(mode, std::move(img));
        }
        plan.hasImages = true;
    });
    phases_.imageSeconds = secondsSince(imageStart);

    // Attach the benchmark's shared signature-table prototype and the
    // matching warmed memory image, if any. Images are immutable from
    // here on; concurrent jobs only fork() them.
    auto attachProto = [&](Job &job) {
        const BenchPlan &plan = *plans[job.benchIdx];
        if (job.cfg.withRev && plan.protoParams &&
            *plan.protoParams == protoParamsOf(job.cfg)) {
            auto it = plan.protos.find(job.cfg.mode);
            if (it != plan.protos.end()) {
                job.cfg.sigStorePrototype = &it->second;
                const auto im = plan.modeImages.find(job.cfg.mode);
                if (plan.hasImages && im != plan.modeImages.end())
                    job.cfg.memoryImage = &im->second;
            }
        } else if (!job.cfg.withRev && plan.hasImages) {
            job.cfg.memoryImage = &plan.baseImage;
        }
    };

    // Phase 2a: record one architectural trace per benchmark that still
    // has at least two uncached jobs. The recorder must be a REV config:
    // its store-drain watermark is the lowest of any config, so the
    // recorded forwarding distances dominate every replay (trace.hpp).
    std::vector<std::size_t> recordIdx;
    if (prog::replayEnabledFromEnv()) {
        for (std::size_t i = 0; i < plans.size(); ++i) {
            std::size_t uncached = 0, rec = kNoJob;
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                if (jobs[j].benchIdx != i || jobs[j].cached)
                    continue;
                ++uncached;
                if (rec == kNoJob && jobs[j].cfg.withRev)
                    rec = j;
            }
            if (uncached >= 2 && rec != kNoJob) {
                plans[i]->recordJobIdx = rec;
                recordIdx.push_back(rec);
            }
        }
    }

    const std::size_t spill_limit = spillThresholdBytes();
    std::atomic<std::size_t> simDone{0};
    const std::size_t simTotal = [&] {
        std::size_t n = 0;
        for (const Job &job : jobs)
            n += !job.cached;
        return n;
    }();
    auto logJob = [&](const Job &job, const BenchPlan &plan,
                      const char *tag) {
        if (!opts_.progress)
            return;
        const std::size_t done = simDone.fetch_add(1) + 1;
        std::lock_guard<std::mutex> lock(logMu);
        std::fprintf(stderr, "[sweep] %-12s %-7s %6.2fs%s (%zu/%zu)\n",
                     plan.profile.name.c_str(), configName(job.config),
                     job.wallSeconds, tag, done, simTotal);
    };

    const auto recordStart = std::chrono::steady_clock::now();
    parallelFor(recordIdx.size(), threadsUsed_, [&](std::size_t k) {
        Job &job = jobs[recordIdx[k]];
        BenchPlan &plan = *plans[job.benchIdx];
        attachProto(job);
        prog::TraceRecorder recorder;
        job.cfg.traceRecorder = &recorder;
        const auto t0 = std::chrono::steady_clock::now();
        job.result = simulateJob(*plan.program, job, plan.profile.name);
        job.wallSeconds = secondsSince(t0);
        job.cfg.traceRecorder = nullptr;

        auto trace = std::make_shared<prog::Trace>(recorder.take());
        if (trace->replayable()) {
            if (trace->byteSize() > spill_limit) {
                plan.spillPath = spillPathFor(plan.profile.name);
                if (trace->save(plan.spillPath))
                    plan.spilled = true; // reloaded lazily in phase 2b
                else
                    plan.trace = std::move(trace);
            } else {
                plan.trace = std::move(trace);
            }
        }
        logJob(job, plan, " (record)");
    });
    phases_.recordSeconds = secondsSince(recordStart);

    // Phase 2b: fan the remaining uncached simulations out across the
    // pool, replaying the benchmark's trace where one attached. Each job
    // writes only its own slot; assembly below is order-independent.
    std::vector<std::size_t> simIdx;
    for (std::size_t j = 0; j < jobs.size(); ++j)
        if (!jobs[j].cached && plans[jobs[j].benchIdx]->recordJobIdx != j)
            simIdx.push_back(j);
    for (std::size_t j : simIdx)
        ++plans[jobs[j].benchIdx]->traceUsers;

    const auto replayStart = std::chrono::steady_clock::now();
    parallelFor(simIdx.size(), threadsUsed_, [&](std::size_t k) {
        Job &job = jobs[simIdx[k]];
        BenchPlan &plan = *plans[job.benchIdx];
        attachProto(job);

        std::shared_ptr<prog::Trace> trace;
        {
            std::lock_guard<std::mutex> lock(plan.traceMu);
            if (plan.spilled && !plan.trace) {
                auto t = std::make_shared<prog::Trace>();
                if (t->load(plan.spillPath))
                    plan.trace = std::move(t);
                else
                    plan.spilled = false; // unreadable spill: run direct
            }
            trace = plan.trace;
        }
        job.cfg.replayTrace = trace.get();

        const auto t0 = std::chrono::steady_clock::now();
        job.result = simulateJob(*plan.program, job, plan.profile.name,
                                 &job.replayed);
        job.wallSeconds = secondsSince(t0);
        job.cfg.replayTrace = nullptr;
        trace.reset();

        {
            std::lock_guard<std::mutex> lock(plan.traceMu);
            if (--plan.traceUsers == 0) {
                plan.trace.reset();
                if (plan.spilled) {
                    std::error_code ec;
                    std::filesystem::remove(plan.spillPath, ec);
                }
            }
        }
        logJob(job, plan, job.replayed ? " (replay)" : "");
    });
    phases_.replaySeconds = secondsSince(replayStart);

    // Assemble deterministically: benchmarks in plan order, configs in
    // kAllConfigs order, every value pulled from its job slot.
    Sweep sweep;
    for (const auto &plan : plans)
        sweep.benchmarks.push_back(plan->profile.name);
    for (const Job &job : jobs) {
        const std::string &bench = plans[job.benchIdx]->profile.name;
        sweep.runs[{bench, job.config}] = job.result.numbers;
        StaticNumbers &st =
            sweep.statics.try_emplace(bench, plans[job.benchIdx]->statics)
                .first->second;
        if (job.config == Config::Full32)
            st.tableBytesFull = job.result.sigTableBytes;
        else if (job.config == Config::Agg32)
            st.tableBytesAggressive = job.result.sigTableBytes;
        else if (job.config == Config::Cfi32)
            st.tableBytesCfi = job.result.sigTableBytes;
        timings_.push_back({bench, job.config, job.wallSeconds, job.cached,
                            job.replayed});
    }

    if (opts_.useCache) {
        for (const Job &job : jobs)
            if (!job.cached)
                cache.putRun(plans[job.benchIdx]->profile.name, job.config,
                             job.key, job.result);
        for (const auto &plan : plans)
            cache.putStatic(plan->profile.name, plan->staticKey,
                            sweep.statics.at(plan->profile.name));
        if (!cache.save())
            warn("sweep: could not write cache file ", opts_.cachePath);
    }

    if (opts_.progress) {
        std::size_t replayed = 0;
        for (const Job &job : jobs)
            replayed += job.replayed;
        std::fprintf(stderr,
                     "[sweep] %zu jobs (%zu cached, %zu replayed) on %u "
                     "thread%s in %.2fs\n",
                     jobs.size(), cacheHits_, replayed, threadsUsed_,
                     threadsUsed_ == 1 ? "" : "s",
                     secondsSince(sweepStart));
    }
    return sweep;
}

} // namespace rev::bench
