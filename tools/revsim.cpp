/**
 * @file
 * revsim — the command-line driver a downstream user reaches for first.
 *
 *   revsim --bench gobmk --mode full --sc 32 --instrs 500000 --stats
 *   revsim --bench gcc --mode cfi --base           # compare vs base core
 *   revsim --list
 *
 * Options:
 *   --bench NAME       SPEC stand-in to run (default mcf); --list shows all
 *                      ("schedstorm" selects the preemptive-scheduler
 *                      workload from src/workloads/scheduler.cpp)
 *   --cores N          simulate N cores (1..64) over the shared L2/DRAM;
 *                      each runs its own validator, stats aggregate
 *                      (default 1)
 *   --mode MODE        full | aggressive | cfi (default full)
 *   --sc KB            signature cache capacity in KB (default 32)
 *   --instrs N         committed-instruction budget (default 500000)
 *   --base             also run the no-REV baseline and print overhead
 *   --shadow-stack     use a shadow call stack instead of Sec. V.A
 *   --page-shadowing   strict R5 whole-run transaction
 *   --interrupts N     external interrupt every N cycles
 *   --dma N            background DMA burst every N cycles
 *   --no-wrong-path    disable wrong-path fetch modeling
 *   --seed N           workload generation seed override
 *   --stats            dump every component's statistics
 *   --attack NAME      run a Table 1 attack instead of a workload
 *                      (--attack list shows the classes)
 *   --record-trace F   record the architectural trace to file F
 *   --replay-trace F   time against the trace in F instead of re-executing
 *                      (falls back to direct execution on any mismatch)
 *   --backend NAME     validation backend: rev (default), lofat, null
 *   --list-backends    print the registered backends and exit
 *
 * Bad input (an unknown bench, an invalid SC geometry, a count that is
 * not a decimal number in range, ...) prints the fatal message and exits
 * with status 2.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "attacks/attack.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "core/simulator.hpp"
#include "program/trace.hpp"
#include "validate/backend_cli.hpp"
#include "workloads/generator.hpp"
#include "workloads/scheduler.hpp"

namespace
{

using namespace rev;

/** Each simulated core holds its own memory fork, validator and OoO
 *  core, so --cores is bounded like a thread count. */
constexpr unsigned kMaxCores = 64;

void
usage()
{
    std::printf(
        "usage: revsim [--bench NAME] [--cores N]\n"
        "              [--mode full|aggressive|cfi]\n"
        "              [--sc KB] [--instrs N] [--base] [--shadow-stack]\n"
        "              [--page-shadowing] [--interrupts N] [--dma N]\n"
        "              [--no-wrong-path] [--seed N] [--stats] [--list]\n"
        "              [--record-trace FILE] [--replay-trace FILE]\n"
        "              [--backend NAME] [--list-backends]\n");
}

int
run(int argc, char **argv)
{
    std::string bench = "mcf";
    std::string attack;
    std::string mode_s = "full";
    unsigned sc_kb = 32;
    u64 instrs = 500'000;
    bool with_base = false;
    bool shadow_stack = false;
    bool page_shadowing = false;
    bool stats = false;
    bool wrong_path = true;
    u64 interrupts = 0, dma = 0, seed = 0;
    unsigned cores = 1;
    std::string record_path, replay_path;
    validate::Backend backend = validate::Backend::Rev;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--bench") {
            bench = next();
        } else if (arg == "--mode") {
            mode_s = next();
        } else if (arg == "--cores") {
            cores = parseCount<unsigned>("--cores", next(), 1, kMaxCores);
        } else if (arg == "--sc") {
            sc_kb = parseCount<unsigned>("--sc", next(), 1);
        } else if (arg == "--instrs") {
            instrs = parseCount<u64>("--instrs", next());
        } else if (arg == "--base") {
            with_base = true;
        } else if (arg == "--shadow-stack") {
            shadow_stack = true;
        } else if (arg == "--page-shadowing") {
            page_shadowing = true;
        } else if (arg == "--interrupts") {
            interrupts = parseCount<u64>("--interrupts", next());
        } else if (arg == "--dma") {
            dma = parseCount<u64>("--dma", next());
        } else if (arg == "--no-wrong-path") {
            wrong_path = false;
        } else if (arg == "--seed") {
            seed = parseCount<u64>("--seed", next());
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--attack") {
            attack = next();
        } else if (arg == "--record-trace") {
            record_path = next();
        } else if (arg == "--replay-trace") {
            replay_path = next();
        } else if (validate::backendCliOptions(argc, argv, &i, &backend)) {
            // shared --backend / --list-backends handling
        } else if (arg == "--list") {
            for (const auto &p : workloads::spec2006Profiles())
                std::printf("%s\n", p.name.c_str());
            std::printf("schedstorm\n");
            return 0;
        } else {
            usage();
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }

    sig::ValidationMode mode;
    if (mode_s == "full")
        mode = sig::ValidationMode::Full;
    else if (mode_s == "aggressive")
        mode = sig::ValidationMode::Aggressive;
    else if (mode_s == "cfi")
        mode = sig::ValidationMode::CfiOnly;
    else {
        usage();
        return 2;
    }

    if (!attack.empty()) {
        const auto all = attacks::makeAllAttacks();
        if (attack == "list") {
            for (const auto &atk : all)
                std::printf("%s\n", atk->name());
            return 0;
        }
        for (const auto &atk : all) {
            if (attack != atk->name())
                continue;
            core::SimConfig acfg;
            acfg.mode = mode;
            acfg.backend = backend;
            const attacks::AttackOutcome out = atk->execute(acfg);
            std::printf("attack               %s\n", atk->name());
            std::printf("mechanism            %s\n",
                        atk->table1Mechanism());
            std::printf("triggered            %s\n",
                        out.triggered ? "yes" : "no");
            std::printf("detected             %s\n",
                        out.detected ? out.reason.c_str() : "NO");
            std::printf("attacker goal met    %s\n",
                        out.succeeded ? "YES (tainted memory)" : "no");
            return out.detected || !atk->detectableIn(acfg.mode, backend)
                       ? 0
                       : 1;
        }
        std::fprintf(stderr, "unknown attack '%s' (try --attack list)\n",
                     attack.c_str());
        return 2;
    }

    workloads::WorkloadProfile prof = workloads::isSchedulerWorkload(bench)
                                          ? workloads::schedStormProfile()
                                          : workloads::specProfile(bench);
    if (seed)
        prof.seed = seed;
    std::fprintf(stderr, "[revsim] generating %s...\n", bench.c_str());
    const prog::Program program = workloads::buildProgram(prof);

    core::SimConfig cfg;
    cfg.mode = mode;
    cfg.backend = backend;
    cfg.numCores = cores;
    if (cores > 1)
        cfg.coreIdAddr = workloads::kSchedCoreIdWord;
    cfg.rev.sc.sizeBytes = sc_kb * 1024ull;
    cfg.core.maxInstrs = instrs;
    cfg.core.modelWrongPath = wrong_path;
    cfg.core.interruptInterval = interrupts;
    cfg.mem.dmaIntervalCycles = dma;
    cfg.pageShadowing = page_shadowing;
    if (shadow_stack)
        cfg.rev.returnValidation = validate::ReturnValidation::ShadowStack;

    prog::TraceRecorder recorder;
    prog::Trace replay_trace;
    if (!record_path.empty() && !replay_path.empty()) {
        std::fprintf(stderr,
                     "[revsim] --record-trace and --replay-trace are "
                     "mutually exclusive\n");
        return 2;
    }
    if (!record_path.empty())
        cfg.traceRecorder = &recorder;
    if (!replay_path.empty()) {
        if (!replay_trace.load(replay_path)) {
            std::fprintf(stderr, "[revsim] cannot read trace %s\n",
                         replay_path.c_str());
            return 2;
        }
        cfg.replayTrace = &replay_trace;
    }

    double base_ipc = 0;
    if (with_base) {
        core::SimConfig bcfg = cfg;
        bcfg.backend = validate::Backend::Null;
        // The base run must not consume the recorder (one trace per
        // simulation); replay attachment revalidates per Simulator.
        bcfg.traceRecorder = nullptr;
        std::fprintf(stderr, "[revsim] base run...\n");
        base_ipc = core::Simulator(program, bcfg).run().run.ipc();
    }

    std::fprintf(stderr, "[revsim] %s run (%s, %u KB SC)...\n",
                 validate::backendName(backend), sig::modeName(mode),
                 sc_kb);
    core::Simulator sim(program, cfg);
    const bool replaying = sim.replayActive();
    const core::SimResult r = sim.run();

    if (!record_path.empty()) {
        const prog::Trace t = recorder.take();
        if (!t.replayable())
            std::fprintf(stderr,
                         "[revsim] warning: recorded trace is not "
                         "replayable (SMC or abnormal end)\n");
        if (!t.save(record_path)) {
            std::fprintf(stderr, "[revsim] cannot write trace %s\n",
                         record_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "[revsim] trace -> %s (%llu instrs)\n",
                     record_path.c_str(),
                     static_cast<unsigned long long>(t.instrCount));
    }
    if (!replay_path.empty())
        std::fprintf(stderr, "[revsim] replay %s\n",
                     replaying ? "attached" : "rejected (ran direct)");

    std::printf("benchmark            %s\n", bench.c_str());
    std::printf("mode                 %s\n", sig::modeName(mode));
    std::printf("instructions         %llu\n",
                static_cast<unsigned long long>(r.run.instrs));
    std::printf("cycles               %llu\n",
                static_cast<unsigned long long>(r.run.cycles));
    std::printf("IPC                  %.4f\n", r.run.ipc());
    if (cores > 1) {
        std::printf("cores                %u\n", cores);
        for (std::size_t c = 0; c < r.perCore.size(); ++c) {
            const cpu::RunResult &pc = r.perCore[c];
            std::printf("  core %-2zu            %llu instrs, %llu cycles, "
                        "IPC %.4f\n",
                        c, static_cast<unsigned long long>(pc.instrs),
                        static_cast<unsigned long long>(pc.cycles),
                        pc.ipc());
        }
    }
    if (with_base) {
        std::printf("base IPC             %.4f\n", base_ipc);
        std::printf("REV overhead         %.2f%%\n",
                    100.0 * (base_ipc - r.run.ipc()) / base_ipc);
    }
    std::printf("branches             %llu (unique %llu, mispred %llu)\n",
                static_cast<unsigned long long>(r.run.committedBranches),
                static_cast<unsigned long long>(r.run.uniqueBranches),
                static_cast<unsigned long long>(r.run.mispredicts));
    std::printf("BBs validated        %llu\n",
                static_cast<unsigned long long>(r.validation.bbValidated));
    if (backend == validate::Backend::Rev)
        std::printf("SC misses            %llu complete + %llu partial\n",
                    static_cast<unsigned long long>(r.rev.scCompleteMisses),
                    static_cast<unsigned long long>(r.rev.scPartialMisses));
    if (backend == validate::Backend::LoFat) {
        std::printf("chain updates        %llu\n",
                    static_cast<unsigned long long>(r.lofat.chainUpdates));
        std::printf("measurement spills   %llu (%llu bytes)\n",
                    static_cast<unsigned long long>(r.lofat.bufferSpills),
                    static_cast<unsigned long long>(r.lofat.spillBytes));
    }
    std::printf("commit stalls        %llu cycles\n",
                static_cast<unsigned long long>(
                    r.validation.commitStallCycles));
    std::printf("signature tables     %llu bytes\n",
                static_cast<unsigned long long>(r.sigTableBytes));
    std::printf("violations           %s\n",
                r.run.violation ? r.run.violation->reason.c_str() : "none");
    if (stats) {
        // Structured accessor instead of text parsing: rows arrive as
        // (name, value) pairs we can format (or filter) directly.
        std::printf("---- component statistics ----\n");
        const stats::StatSet set = sim.stats();
        for (const auto &[name, value] : set.rows())
            std::printf("%-36s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
