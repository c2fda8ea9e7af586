#include "bench/suite.hpp"

#include <cstdio>
#include <cstdlib>

#include "bench/sweep_runner.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "validate/backend_cli.hpp"
#include "workloads/generator.hpp"

namespace rev::bench
{

const char *
configName(Config c)
{
    switch (c) {
      case Config::Base: return "base";
      case Config::Full32: return "full32";
      case Config::Full64: return "full64";
      case Config::Agg32: return "agg32";
      case Config::Agg64: return "agg64";
      case Config::Cfi32: return "cfi32";
    }
    return "?";
}

core::SimConfig
sweepSimConfig(Config c, u64 budget)
{
    core::SimConfig cfg;
    cfg.core.maxInstrs = budget;
    switch (c) {
      case Config::Base:
        cfg.backend = validate::Backend::Null;
        break;
      case Config::Full32:
        cfg.mode = sig::ValidationMode::Full;
        cfg.rev.sc.sizeBytes = 32 * 1024;
        break;
      case Config::Full64:
        cfg.mode = sig::ValidationMode::Full;
        cfg.rev.sc.sizeBytes = 64 * 1024;
        break;
      case Config::Agg32:
        cfg.mode = sig::ValidationMode::Aggressive;
        cfg.rev.sc.sizeBytes = 32 * 1024;
        break;
      case Config::Agg64:
        cfg.mode = sig::ValidationMode::Aggressive;
        cfg.rev.sc.sizeBytes = 64 * 1024;
        break;
      case Config::Cfi32:
        cfg.mode = sig::ValidationMode::CfiOnly;
        cfg.rev.sc.sizeBytes = 32 * 1024;
        break;
    }
    return cfg;
}

SweepOptions
SweepOptions::quick()
{
    SweepOptions opts;
    const auto profiles = workloads::spec2006Profiles();
    for (std::size_t i = 0; i < profiles.size() && i < 3; ++i)
        opts.benchmarks.push_back(profiles[i].name);
    opts.instrBudget = kQuickInstrBudget;
    return opts;
}

Sweep
runSweep(const SweepOptions &opts)
{
    return SweepRunner(opts).run();
}

SweepOptions
sweepOptionsFromArgs(int argc, char **argv)
{
    auto usage = [&](int code) {
        std::printf(
            "usage: %s [--quick] [--threads N] [--instrs N] [--bench a,b,c]\n"
            "          [--write-golden PATH] [--backend NAME]\n"
            "          [--list-backends]\n",
            argc > 0 ? argv[0] : "figures");
        std::exit(code);
    };
    // --quick is a base preset: apply it first so the other flags
    // override it regardless of their position on the command line.
    SweepOptions opts;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--quick")
            opts = SweepOptions::quick();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--quick") {
            // applied above
        } else if (arg == "--threads") {
            opts.threads =
                parseCount<unsigned>("--threads", next(), 0, kMaxThreads);
        } else if (arg == "--instrs") {
            opts.instrBudget = parseCount<u64>("--instrs", next(), 1);
        } else if (arg == "--bench") {
            opts.benchmarks = parseNameList(next());
        } else if (arg == "--write-golden") {
            opts.useCache = true;
            opts.cachePath = next();
        } else if (validate::backendCliOptions(argc, argv, &i,
                                               &opts.backend)) {
            // shared --backend / --list-backends handling
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            usage(2);
        }
    }
    return opts;
}

double
overheadPct(const Sweep &s, const std::string &bench, Config cfg)
{
    const double base = s.at(bench, Config::Base).ipc;
    const double with = s.at(bench, cfg).ipc;
    return base > 0 ? 100.0 * (base - with) / base : 0.0;
}

} // namespace rev::bench
