/**
 * @file
 * simperf — simulator-speed harness.
 *
 * Runs a benchmark sweep with the cache disabled, measures wall-clock
 * simulation speed (simulated MIPS) per (benchmark, config) job, and
 * writes the numbers to a JSON report (BENCH_sim_speed.json): per-job
 * wall times (tagged with whether the job replayed a recorded trace),
 * the sweep's per-phase host wall-clock breakdown (generate / proto-hash
 * / image-load / record / replay), and host microbenchmarks of the hot
 * primitives (per-block signature hash, memory-system access, machine
 * snapshot capture / memory fork / restore / fork-and-run). Optionally
 * compares every tracked simulated statistic of the sweep against a
 * pinned golden snapshot and fails if anything deviates — the contract
 * that simulator fast paths never change simulated results.
 *
 * Usage:
 *   simperf [--quick] [--bench a,b,c] [--instrs N] [--threads N]
 *           [--out FILE] [--golden FILE] [--backend NAME]
 *           [--list-backends] [--cores N]
 *
 *   --quick    three-benchmark smoke preset (same as the bench binaries)
 *   --out      JSON report path (default BENCH_sim_speed.json)
 *   --golden   sweep-cache snapshot to compare statistics against;
 *              any mismatch is reported and exits nonzero
 *   --cores    multicore scaling mode instead of the speed sweep: run the
 *              scheduler workload base-vs-REV at 1,2,4,..,N cores over
 *              the shared L2/DRAM (DMA pressure on, DRAM bandwidth
 *              fixed) and write a rev-multicore-v1 JSON table (default
 *              BENCH_multicore.json) of per-core SC-fill traffic,
 *              cross-core wait cycles, and aggregate overhead. Exits
 *              nonzero if overhead ever drops as cores are added.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/golden.hpp"
#include "bench/suite.hpp"
#include "bench/sweep_runner.hpp"
#include "common/logging.hpp"
#include "core/snapshot.hpp"
#include "crypto/aes.hpp"
#include "crypto/cubehash.hpp"
#include "mem/memsys.hpp"
#include "sig/table.hpp"
#include "validate/backend_cli.hpp"
#include "workloads/generator.hpp"
#include "workloads/scheduler.hpp"

namespace
{

using namespace rev;
using namespace rev::bench;

struct Args
{
    SweepOptions opts;
    std::string outPath = "BENCH_sim_speed.json";
    bool outPathSet = false;
    std::string goldenPath; ///< empty = no comparison
    unsigned cores = 0;     ///< nonzero selects the multicore scaling mode
};

[[noreturn]] void
usage(int code)
{
    std::printf("usage: simperf [--quick] [--bench a,b,c] [--instrs N]\n"
                "               [--threads N] [--out FILE] [--golden FILE]\n"
                "               [--cores N]\n"
                "               %s\n",
                rev::validate::kBackendCliUsage);
    std::exit(code);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    // Default to the quick preset: simperf is a measurement harness, not
    // a figure generator.
    args.opts = SweepOptions::quick();
    auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(2);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            args.opts = SweepOptions::quick();
        } else if (arg == "--bench") {
            args.opts.benchmarks.clear();
            std::string names = next(i);
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                const std::size_t comma = names.find(',', pos);
                const std::string name =
                    names.substr(pos, comma == std::string::npos
                                          ? std::string::npos
                                          : comma - pos);
                if (!name.empty())
                    args.opts.benchmarks.push_back(name);
                pos = comma == std::string::npos ? comma : comma + 1;
            }
        } else if (arg == "--instrs") {
            args.opts.instrBudget = std::strtoull(next(i), nullptr, 10);
        } else if (arg == "--threads") {
            args.opts.threads = static_cast<unsigned>(std::atoi(next(i)));
        } else if (arg == "--out") {
            args.outPath = next(i);
            args.outPathSet = true;
        } else if (arg == "--cores") {
            args.cores = static_cast<unsigned>(std::atoi(next(i)));
            if (args.cores < 1)
                usage(2);
        } else if (arg == "--golden") {
            args.goldenPath = next(i);
        } else if (validate::backendCliOptions(argc, argv, &i,
                                               &args.opts.backend)) {
            // shared --backend / --list-backends handling
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "simperf: unknown argument '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }
    return args;
}

/** Host cost of the two primitives the sweep leans on hardest. */
struct MicroNumbers
{
    double bbHashNs = 0;      ///< one 64-byte basic-block signature hash
    double memsysAccessNs = 0; ///< one timing-model memory access

    // Hash-throughput breakdown: the single-state kernel vs the batch
    // entry point over the same total bytes (64-byte block-sized
    // messages, the sweep's common case).
    double hashScalarMBps = 0; ///< single-state permute kernel
    double hashBatchMBps = 0;  ///< crypto::cubehashBatch, 64 per call
    unsigned statesPerRound = 1; ///< states the batch kernel's round advances

    double aesCtrMBps = 0; ///< Aes128::ctrCrypt over 4 KiB buffers

    // Machine-snapshot primitives (core/snapshot.hpp): what the
    // campaign / sweep pay per warmed-state reuse instead of
    // re-executing the prefix.
    double snapshotCaptureUs = 0; ///< Simulator::capture()
    double snapshotForkUs = 0;    ///< SparseMemory::fork() alone
    double snapshotRestoreUs = 0; ///< Simulator::forkFrom() total
    /** forkFrom() plus run() of the fork's next 5k instructions: what a
     *  campaign injection pays, cold decodes included. */
    double snapshotForkRunUs = 0;
};

MicroNumbers
runMicro()
{
    using Clock = std::chrono::steady_clock;
    auto secsSince = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    MicroNumbers m;
    {
        u8 buf[64];
        for (unsigned i = 0; i < sizeof(buf); ++i)
            buf[i] = static_cast<u8>(i * 37 + 1);
        constexpr int kIters = 20000;
        u32 sink = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < kIters; ++i)
            sink ^= sig::bbHashBytes(buf, sizeof(buf), 0x1000 + sink % 7,
                                     0x1040, 5);
        m.bbHashNs = secsSince(t0) * 1e9 / kIters;
    }
    {
        u8 buf[64];
        for (unsigned i = 0; i < sizeof(buf); ++i)
            buf[i] = static_cast<u8>(i * 11 + 5);
        constexpr int kIters = 20000;
        // Single-state kernel throughput.
        {
            u32 sink = 0;
            const auto t0 = Clock::now();
            for (int i = 0; i < kIters; ++i) {
                crypto::CubeHash h(5, 32, 256);
                h.update(buf, sizeof(buf));
                sink ^= crypto::CubeHash::signature32(h.finalize());
            }
            const double secs = secsSince(t0);
            m.hashScalarMBps =
                secs > 0 ? kIters * sizeof(buf) / secs / 1e6 : 0;
            (void)sink;
        }
        // Batch entry point throughput over the same bytes.
        {
            constexpr int kBatch = 64;
            crypto::HashMsg msgs[kBatch];
            for (auto &msg : msgs)
                msg = {buf, sizeof(buf)};
            crypto::Digest out[kBatch];
            u32 sink = 0;
            const auto t0 = Clock::now();
            for (int i = 0; i < kIters / kBatch; ++i) {
                crypto::cubehashBatch(msgs, kBatch, 5, out);
                sink ^= crypto::CubeHash::signature32(out[i % kBatch]);
            }
            const double secs = secsSince(t0);
            m.hashBatchMBps = secs > 0 ? (kIters / kBatch) * kBatch *
                                             sizeof(buf) / secs / 1e6
                                       : 0;
            (void)sink;
        }
        m.statesPerRound = crypto::cubehashBatchLanes();
    }
    {
        // Table-encryption throughput: CTR over 4 KiB buffers.
        std::vector<u8> buf(4096, 0x5a);
        const crypto::Aes128 aes(crypto::AesKey{});
        constexpr int kIters = 2000;
        const auto t0 = Clock::now();
        for (int i = 0; i < kIters; ++i)
            aes.ctrCrypt(buf, static_cast<u64>(i));
        const double secs = secsSince(t0);
        m.aesCtrMBps = secs > 0 ? kIters * buf.size() / secs / 1e6 : 0;
    }
    {
        mem::MemorySystem ms{mem::MemConfig{}};
        constexpr int kIters = 200000;
        Cycle at = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < kIters; ++i) {
            const auto r = ms.access((static_cast<Addr>(i) * 64) & 0x3fffff,
                                     mem::AccessType::DataRead, at);
            at = std::max(at + 1, r.l1Hit ? at + 1 : r.completeAt);
        }
        m.memsysAccessNs = secsSince(t0) * 1e9 / kIters;
    }
    {
        // Snapshot primitives over a small warmed machine.
        const prog::Program program =
            workloads::generateWorkload(workloads::specProfile("mcf"));
        const core::SimConfig cfg = sweepSimConfig(Config::Full32, 7000);
        core::Simulator src(program, cfg);
        if (src.runUntil(2000)) {
            constexpr int kIters = 25;
            auto t0 = Clock::now();
            for (int i = 0; i < kIters; ++i)
                (void)src.capture();
            m.snapshotCaptureUs = secsSince(t0) * 1e6 / kIters;

            const core::Snapshot snap = src.capture();
            t0 = Clock::now();
            for (int i = 0; i < kIters; ++i)
                (void)snap.mem.fork();
            m.snapshotForkUs = secsSince(t0) * 1e6 / kIters;

            t0 = Clock::now();
            for (int i = 0; i < kIters; ++i)
                (void)core::Simulator::forkFrom(snap);
            m.snapshotRestoreUs = secsSince(t0) * 1e6 / kIters;

            t0 = Clock::now();
            for (int i = 0; i < kIters; ++i)
                (void)core::Simulator::forkFrom(snap)->run();
            m.snapshotForkRunUs = secsSince(t0) * 1e6 / kIters;
        }
    }
    return m;
}

// ---------------------------------------------------------------------------
// Multicore scaling mode (--cores): N validating cores contending for
// SC-fill bandwidth on a shared L2/DRAM
// ---------------------------------------------------------------------------

/** One row of the scaling table: base vs REV at a fixed core count. */
struct ScalePoint
{
    unsigned cores = 1;
    u64 baseCycles = 0, revCycles = 0; ///< aggregate (max over cores)
    u64 baseInstrs = 0, revInstrs = 0; ///< summed over cores
    double overhead = 0;               ///< rev/base aggregate-cycle ratio - 1
    u64 scFillAccesses = 0, scFillL1Misses = 0, scFillL2Misses = 0;
    struct PerCore
    {
        u64 instrs = 0, cycles = 0;
        u64 scFill = 0, xcoreL2Wait = 0, xcoreScFillWait = 0;
    };
    std::vector<PerCore> perCore;
};

core::SimResult
runScalePoint(core::SimConfig cfg, const prog::Program &program,
              stats::StatSet *set)
{
    core::Simulator sim(program, cfg);
    core::SimResult r = sim.run();
    if (set)
        *set = sim.stats();
    return r;
}

int
runMulticoreScaling(const Args &args)
{
    const workloads::WorkloadProfile prof = workloads::schedStormProfile();
    const prog::Program program = workloads::buildProgram(prof);
    const std::string out =
        args.outPathSet ? args.outPath : std::string("BENCH_multicore.json");

    // Fixed timing config across every point: the DRAM (and the DMA
    // pressure riding on it) never scales with the core count, so each
    // added validator bids for the same fill bandwidth.
    core::SimConfig proto = sweepSimConfig(Config::Full32, 0);
    proto.backend = args.opts.backend;
    proto.core.maxInstrs =
        args.opts.instrBudget ? args.opts.instrBudget : 120'000;
    proto.mem.dmaIntervalCycles = 400; // background DMA pressure
    proto.coreIdAddr = workloads::kSchedCoreIdWord;

    std::vector<ScalePoint> points;
    for (unsigned n = 1; n <= args.cores; n *= 2) {
        core::SimConfig cfg = proto;
        cfg.numCores = n;

        core::SimConfig base = cfg;
        base.withRev = false;
        const core::SimResult rb = runScalePoint(base, program, nullptr);

        stats::StatSet set;
        const core::SimResult rr = runScalePoint(cfg, program, &set);

        ScalePoint p;
        p.cores = n;
        p.baseCycles = rb.run.cycles;
        p.revCycles = rr.run.cycles;
        p.baseInstrs = rb.run.instrs;
        p.revInstrs = rr.run.instrs;
        p.overhead = p.baseCycles
                         ? static_cast<double>(p.revCycles) / p.baseCycles - 1
                         : 0;
        p.scFillAccesses = rr.scFillAccesses;
        p.scFillL1Misses = rr.scFillL1Misses;
        p.scFillL2Misses = rr.scFillL2Misses;

        std::map<std::string, u64> rows;
        for (const auto &[name, value] : set.rows())
            rows[name] = value;
        p.perCore.resize(rr.perCore.size());
        for (std::size_t c = 0; c < rr.perCore.size(); ++c) {
            ScalePoint::PerCore &pc = p.perCore[c];
            pc.instrs = rr.perCore[c].instrs;
            pc.cycles = rr.perCore[c].cycles;
            if (n == 1) {
                pc.scFill = rows["sim.req.sc_fill.count"];
            } else {
                const std::string cp = "sim.c" + std::to_string(c) + ".";
                pc.scFill = rows[cp + "req.sc_fill.count"];
                pc.xcoreL2Wait = rows[cp + "xcore.l2_wait_cycles"];
                pc.xcoreScFillWait = rows[cp + "xcore.sc_fill_wait_cycles"];
            }
        }
        std::printf("simperf: cores=%u base %llu cycles, rev %llu cycles, "
                    "overhead %.2f%%\n",
                    n, static_cast<unsigned long long>(p.baseCycles),
                    static_cast<unsigned long long>(p.revCycles),
                    100.0 * p.overhead);
        points.push_back(std::move(p));
    }

    std::ofstream os(out);
    if (!os)
        fatal("simperf: cannot write ", out);
    os << "{\n"
       << "  \"schema\": \"rev-multicore-v1\",\n"
       << "  \"bench\": \"" << prof.name << "\",\n"
       << "  \"backend\": \"" << validate::backendName(proto.backend)
       << "\",\n"
       << "  \"instr_budget_per_core\": " << proto.core.maxInstrs << ",\n"
       << "  \"dma_interval_cycles\": " << proto.mem.dmaIntervalCycles
       << ",\n"
       << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ScalePoint &p = points[i];
        os << "    {\"cores\": " << p.cores
           << ", \"base_cycles\": " << p.baseCycles
           << ", \"rev_cycles\": " << p.revCycles
           << ", \"base_instrs\": " << p.baseInstrs
           << ", \"rev_instrs\": " << p.revInstrs
           << ", \"overhead_pct\": " << 100.0 * p.overhead
           << ", \"sc_fill\": {\"accesses\": " << p.scFillAccesses
           << ", \"l1_misses\": " << p.scFillL1Misses
           << ", \"l2_misses\": " << p.scFillL2Misses << "},\n"
           << "     \"per_core\": [";
        for (std::size_t c = 0; c < p.perCore.size(); ++c) {
            const ScalePoint::PerCore &pc = p.perCore[c];
            os << (c ? ", " : "") << "{\"core\": " << c
               << ", \"instrs\": " << pc.instrs
               << ", \"cycles\": " << pc.cycles
               << ", \"sc_fill\": " << pc.scFill
               << ", \"xcore_l2_wait_cycles\": " << pc.xcoreL2Wait
               << ", \"xcore_sc_fill_wait_cycles\": " << pc.xcoreScFillWait
               << "}";
        }
        os << "]}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("simperf: multicore scaling table -> %s\n", out.c_str());

    // The contract the figure rests on: validation overhead may not
    // shrink when more validators contend for the same fill bandwidth.
    for (std::size_t i = 1; i < points.size(); ++i) {
        if (points[i].overhead < points[i - 1].overhead - 1e-9) {
            std::fprintf(stderr,
                         "simperf: OVERHEAD REGRESSION: %.4f%% at %u cores "
                         "< %.4f%% at %u cores\n",
                         100.0 * points[i].overhead, points[i].cores,
                         100.0 * points[i - 1].overhead,
                         points[i - 1].cores);
            return 1;
        }
    }
    return 0;
}

void
writeReport(const Args &args, const Sweep &sweep, const SweepRunner &runner,
            double total_wall, const MicroNumbers &micro)
{
    std::ofstream os(args.outPath);
    if (!os)
        fatal("simperf: cannot write ", args.outPath);

    u64 total_instrs = 0;
    double total_job_wall = 0;
    std::size_t replayed_jobs = 0;
    os << "{\n"
       << "  \"schema\": \"rev-sim-speed-v7\",\n"
       << "  \"instr_budget\": " << args.opts.instrBudget << ",\n"
       << "  \"threads\": " << runner.threadsUsed() << ",\n"
       << "  \"jobs\": [\n";
    const auto &timings = runner.timings();
    for (std::size_t i = 0; i < timings.size(); ++i) {
        const JobTiming &t = timings[i];
        const RunNumbers &r = sweep.at(t.bench, t.config);
        const double mips = t.wallSeconds > 0
                                ? static_cast<double>(r.instrs) /
                                      t.wallSeconds / 1e6
                                : 0;
        total_instrs += r.instrs;
        total_job_wall += t.wallSeconds;
        replayed_jobs += t.replayed;
        os << "    {\"bench\": \"" << t.bench << "\", \"config\": \""
           << configName(t.config) << "\", \"wall_seconds\": "
           << t.wallSeconds << ", \"instrs\": " << r.instrs
           << ", \"cycles\": " << r.cycles << ", \"sim_mips\": " << mips
           << ", \"replayed\": " << (t.replayed ? "true" : "false") << "}"
           << (i + 1 < timings.size() ? "," : "") << "\n";
    }
    const SweepPhaseTimings &ph = runner.phaseTimings();
    os << "  ],\n"
       << "  \"phases\": {\"generate_seconds\": " << ph.generateSeconds
       << ", \"proto_seconds\": " << ph.protoSeconds
       << ", \"image_seconds\": " << ph.imageSeconds
       << ", \"record_seconds\": " << ph.recordSeconds
       << ", \"replay_seconds\": " << ph.replaySeconds << "},\n"
       << "  \"micro\": {\"bb_hash_ns\": " << micro.bbHashNs
       << ", \"memsys_access_ns\": " << micro.memsysAccessNs
       << ", \"hash_scalar_mbps\": " << micro.hashScalarMBps
       << ", \"hash_batch_mbps\": " << micro.hashBatchMBps
       << ", \"hash_states_per_round\": " << micro.statesPerRound
       << ", \"hash_impl\": \"" << crypto::cubehashImpl() << "\""
       << ", \"aes_impl\": \"" << crypto::aesImpl() << "\""
       << ", \"aes_ctr_mbps\": " << micro.aesCtrMBps
       << ", \"snapshot_capture_us\": " << micro.snapshotCaptureUs
       << ", \"snapshot_mem_fork_us\": " << micro.snapshotForkUs
       << ", \"snapshot_restore_us\": " << micro.snapshotRestoreUs
       << ", \"snapshot_fork_run_us\": " << micro.snapshotForkRunUs
       << "},\n"
       << "  \"total\": {\"wall_seconds\": " << total_wall
       << ", \"job_wall_seconds\": " << total_job_wall
       << ", \"replayed_jobs\": " << replayed_jobs
       << ", \"instrs\": " << total_instrs << ", \"sim_mips\": "
       << (total_job_wall > 0
               ? static_cast<double>(total_instrs) / total_job_wall / 1e6
               : 0)
       << "}\n"
       << "}\n";
    std::printf("simperf: %zu jobs (%zu replayed), %.2fs wall "
                "(gen %.2f + proto %.2f + image %.2f + record %.2f + "
                "replay %.2f), "
                "hash=%s (%.0f MB/s scalar, %.0f MB/s batch %s), "
                "aes=%s (%.0f MB/s ctr), report -> %s\n",
                timings.size(), replayed_jobs, total_wall,
                ph.generateSeconds, ph.protoSeconds, ph.imageSeconds,
                ph.recordSeconds, ph.replaySeconds, crypto::cubehashImpl(),
                micro.hashScalarMBps, micro.hashBatchMBps,
                crypto::cubehashBatchImpl(), crypto::aesImpl(),
                micro.aesCtrMBps, args.outPath.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);

        if (args.cores)
            return runMulticoreScaling(args);

        const auto t0 = std::chrono::steady_clock::now();
        SweepRunner runner(args.opts);
        const Sweep sweep = runner.run();
        const double total_wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();

        writeReport(args, sweep, runner, total_wall, runMicro());

        if (!args.goldenPath.empty()) {
            const auto diffs =
                compareToGolden(sweep, args.opts, args.goldenPath);
            if (!diffs.empty()) {
                for (const auto &d : diffs)
                    std::fprintf(stderr, "simperf: GOLDEN MISMATCH %s/%s: %s\n",
                                 d.bench.c_str(), configName(d.config),
                                 d.detail.c_str());
                return 1;
            }
            std::printf("simperf: all statistics match golden snapshot %s\n",
                        args.goldenPath.c_str());
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
