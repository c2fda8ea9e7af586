/**
 * @file
 * Shared benchmark sweep for the paper-reproduction harnesses.
 *
 * Every table of bench/figures.cpp renders the same underlying experiment:
 * the 15 SPEC stand-ins, each simulated under the base core and under REV
 * in several configurations (Full with 32/64 KB SC, Aggressive with
 * 32/64 KB, CFI-only with 32 KB). The 90 (benchmark, config) jobs are
 * mutually independent, so the sweep engine (SweepRunner) fans them out
 * across a worker pool and collects results deterministically — parallel
 * output is identical to a serial run.
 *
 * Entry point: runSweep(SweepOptions). Options select the benchmark
 * subset, instruction budget, thread count and validation backend, and
 * may name a file to write the sweep's golden snapshot to (golden.hpp).
 * Every run simulates every job; nothing is read back from disk.
 */

#ifndef REV_BENCH_SUITE_HPP
#define REV_BENCH_SUITE_HPP

#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/types.hpp"
#include "core/simulator.hpp"

namespace rev::bench
{

/** Simulated configurations. */
enum class Config
{
    Base,   ///< no REV
    Full32, ///< REV, full validation, 32 KB SC
    Full64,
    Agg32, ///< aggressive validation (Sec. V.C)
    Agg64,
    Cfi32, ///< CFI-only validation (Sec. V.D)
};

inline constexpr Config kAllConfigs[] = {Config::Base,  Config::Full32,
                                         Config::Full64, Config::Agg32,
                                         Config::Agg64, Config::Cfi32};

const char *configName(Config c);

/** The core::SimConfig a sweep uses for @p c at @p budget instructions. */
core::SimConfig sweepSimConfig(Config c, u64 budget);

/** One (benchmark, config) measurement. */
struct RunNumbers
{
    double ipc = 0;
    u64 cycles = 0;
    u64 instrs = 0;
    u64 committedBranches = 0;
    u64 uniqueBranches = 0;
    u64 mispredicts = 0;
    u64 scCompleteMisses = 0;
    u64 scPartialMisses = 0;
    u64 commitStallCycles = 0;
    u64 scFillAccesses = 0;
    u64 scFillL1Misses = 0;
    u64 scFillL2Misses = 0;
    u64 violations = 0;

    u64 scMisses() const { return scCompleteMisses + scPartialMisses; }

    bool operator==(const RunNumbers &) const = default;
};

/** Static per-benchmark facts (independent of the simulated config). */
struct StaticNumbers
{
    u64 numBlocks = 0;
    u64 numTerminators = 0;
    double instrsPerBlock = 0;
    double succsPerBlock = 0;
    u64 codeBytes = 0;
    u64 computedSites = 0;
    u64 branchSites = 0;
    u64 tableBytesFull = 0;
    u64 tableBytesAggressive = 0;
    u64 tableBytesCfi = 0;

    bool operator==(const StaticNumbers &) const = default;
};

/** The whole sweep. */
struct Sweep
{
    std::vector<std::string> benchmarks; ///< paper order
    u64 instrBudget = 0;                 ///< per-run instruction budget
    std::map<std::string, StaticNumbers> statics;
    std::map<std::pair<std::string, Config>, RunNumbers> runs;

    const RunNumbers &
    at(const std::string &bench, Config c) const
    {
        return runs.at({bench, c});
    }

    bool operator==(const Sweep &) const = default;
};

/** Instructions simulated per benchmark per config. */
inline constexpr u64 kInstrBudget = 2'000'000;

/** Instruction budget of the quick (smoke-test) sweep. */
inline constexpr u64 kQuickInstrBudget = 100'000;

/**
 * How to run a sweep. The default-constructed options reproduce the
 * paper sweep: all 15 stand-ins, 2 M instructions per run, as many
 * worker threads as the hardware offers.
 */
struct SweepOptions
{
    /** Benchmark subset (paper order preserved); empty = all 15. */
    std::vector<std::string> benchmarks;

    /** Committed-instruction budget per (benchmark, config) run. */
    u64 instrBudget = kInstrBudget;

    /**
     * Worker threads for the job fan-out. 0 = the REV_BENCH_THREADS
     * environment variable if set, else std::thread::hardware_concurrency.
     * 1 forces the fully serial path (no threads spawned).
     */
    unsigned threads = 0;

    /**
     * Write the sweep's golden snapshot to cachePath after the run
     * (writeGolden in golden.hpp). Nothing is ever read back. The names
     * predate the snapshot writer: they belonged to an on-disk job cache.
     */
    bool useCache = false;

    /** Where useCache writes the golden snapshot. */
    std::string cachePath;

    /** Per-job progress lines on stderr. */
    bool progress = true;

    /**
     * Validation backend applied to every with-validation config of the
     * sweep (the Base config always runs without one).
     */
    validate::Backend backend = validate::Backend::Rev;

    /** Three benchmarks at a small budget (tests / CI smoke). */
    static SweepOptions quick();
};

/**
 * Compute the sweep described by @p opts. Results are keyed by
 * (benchmark, config) independent of job completion order, so the
 * returned Sweep is identical for any thread count.
 */
Sweep runSweep(const SweepOptions &opts = {});

/**
 * Parse the sweep command line into SweepOptions:
 *
 *   --quick              3 benchmarks, small budget
 *   --threads N          worker threads (default: REV_BENCH_THREADS or all)
 *   --instrs N           per-run committed-instruction budget (N > 0)
 *   --bench a,b,c        benchmark subset
 *   --write-golden PATH  write the sweep's golden snapshot to PATH
 *   --backend NAME       validation backend (rev, lofat, null)
 *   --list-backends      print the registered backends and exit
 *
 * Prints usage and exits on --help or an unknown flag; throws FatalError
 * on a non-numeric --threads or one above kMaxThreads, and on a
 * non-numeric or zero --instrs.
 */
SweepOptions sweepOptionsFromArgs(int argc, char **argv);

/** The checked command-line parsers, under their bench:: spellings. */
using rev::parseCount;
using rev::parseNameList;

/** Percentage IPC overhead of @p cfg relative to the base run. */
double overheadPct(const Sweep &s, const std::string &bench, Config cfg);

} // namespace rev::bench

#endif // REV_BENCH_SUITE_HPP
