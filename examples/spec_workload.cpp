/**
 * @file
 * SPEC stand-in explorer: run one of the 15 calibrated synthetic
 * benchmarks under a chosen configuration and print the full statistics
 * REV produces -- the per-benchmark view behind Figures 6-11.
 *
 *   ./examples/spec_workload [benchmark] [mode] [sc_kb] [instrs]
 *   e.g. ./examples/spec_workload gobmk full 32 500000
 *        ./examples/spec_workload gcc cfi 64 1000000
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/simulator.hpp"
#include "program/cfg.hpp"
#include "workloads/generator.hpp"

int
main(int argc, char **argv)
{
    using namespace rev;

    const std::string bench = argc > 1 ? argv[1] : "mcf";
    const std::string mode_s = argc > 2 ? argv[2] : "full";
    const unsigned sc_kb = argc > 3 ? std::atoi(argv[3]) : 32;
    const u64 instrs = argc > 4 ? std::atoll(argv[4]) : 500'000;

    sig::ValidationMode mode = sig::ValidationMode::Full;
    if (mode_s == "aggressive")
        mode = sig::ValidationMode::Aggressive;
    else if (mode_s == "cfi")
        mode = sig::ValidationMode::CfiOnly;
    else if (mode_s != "full")
        fatal("mode must be full | aggressive | cfi");

    std::printf("Generating '%s'...\n", bench.c_str());
    const workloads::WorkloadProfile prof = workloads::specProfile(bench);
    const prog::Program program = workloads::generateWorkload(prof);
    const prog::CfgStats cs = prog::buildCfg(program.main()).stats();

    std::printf("  static: %llu basic blocks, %.2f instrs/block, "
                "%.2f successors/block, %zu code bytes\n",
                static_cast<unsigned long long>(cs.numBlocks),
                cs.avgInstrsPerBlock, cs.avgSuccsPerBlock,
                program.main().codeSize);

    // Base run for the overhead comparison.
    core::SimConfig base_cfg;
    base_cfg.backend = validate::Backend::Null;
    base_cfg.core.maxInstrs = instrs;
    core::Simulator base(program, base_cfg);
    const core::SimResult rb = base.run();

    core::SimConfig cfg;
    cfg.mode = mode;
    cfg.rev.sc.sizeBytes = sc_kb * 1024ull;
    cfg.core.maxInstrs = instrs;
    core::Simulator sim(program, cfg);
    const core::SimResult r = sim.run();

    const double ovh = 100.0 * (rb.run.ipc() - r.run.ipc()) / rb.run.ipc();
    std::printf("\n%s under %s validation, %u KB SC, %llu instrs:\n",
                bench.c_str(), sig::modeName(mode), sc_kb,
                static_cast<unsigned long long>(instrs));
    std::printf("  %-28s %12.3f\n", "base IPC", rb.run.ipc());
    std::printf("  %-28s %12.3f  (overhead %.2f%%)\n", "REV IPC",
                r.run.ipc(), ovh);
    std::printf("  %-28s %12llu\n", "committed branches",
                static_cast<unsigned long long>(r.run.committedBranches));
    std::printf("  %-28s %12llu\n", "unique branches",
                static_cast<unsigned long long>(r.run.uniqueBranches));
    std::printf("  %-28s %12llu\n", "mispredicts",
                static_cast<unsigned long long>(r.run.mispredicts));
    std::printf("  %-28s %12llu\n", "BBs validated",
                static_cast<unsigned long long>(r.rev.bbValidated));
    std::printf("  %-28s %12llu / %llu\n", "SC misses (complete/partial)",
                static_cast<unsigned long long>(r.rev.scCompleteMisses),
                static_cast<unsigned long long>(r.rev.scPartialMisses));
    std::printf("  %-28s %12llu\n", "SC fill memory accesses",
                static_cast<unsigned long long>(r.scFillAccesses));
    std::printf("  %-28s %12llu / %llu\n", "fill L1D / L2 misses",
                static_cast<unsigned long long>(r.scFillL1Misses),
                static_cast<unsigned long long>(r.scFillL2Misses));
    std::printf("  %-28s %12llu\n", "commit stall cycles",
                static_cast<unsigned long long>(r.rev.commitStallCycles));
    std::printf("  %-28s %12llu (%.1f%% of code)\n", "signature table bytes",
                static_cast<unsigned long long>(r.sigTableBytes),
                100.0 * static_cast<double>(r.sigTableBytes) /
                    static_cast<double>(program.main().codeSize));
    std::printf("  %-28s %12s\n", "violations",
                r.run.violation ? r.run.violation->reason.c_str() : "none");
    return 0;
}
