/**
 * @file
 * Golden snapshots: pin every tracked simulated statistic of a sweep
 * against a checked-in text file.
 *
 * The simulator's fast paths (predecoded-instruction cache, page-span
 * memory accesses, trace replay) are pure software optimizations: they
 * must never change a simulated number. The golden snapshot makes that
 * contract executable — the quick sweep is compared bit-for-bit against
 * a checked-in reference by the test suite (GoldenStats), so a perf
 * patch that perturbs the timing model fails loudly.
 *
 * File format ("revcache v8", one record per line):
 *
 *   revcache v8
 *   static <bench> <key> <blocks> <terminators> <inst/BB> <succ/BB>
 *          <code-bytes> <computed-sites> <branch-sites>
 *          <table-full> <table-aggressive> <table-cfi>
 *   run <bench> <config> <key> <ipc> <cycles> <instrs> <branches>
 *       <unique-branches> <mispredicts> <sc-complete> <sc-partial>
 *       <commit-stalls> <fills> <fill-l1-misses> <fill-l2-misses>
 *       <violations> <table-bytes>
 *
 * The reader indexes `run` lines by (benchmark, config); it ignores the
 * key column and the `static` lines, which are informational. The
 * writer puts 0 in the key column. Refresh a snapshot with
 * `figures --quick --write-golden PATH` (see docs/COOKBOOK.md).
 */

#ifndef REV_BENCH_GOLDEN_HPP
#define REV_BENCH_GOLDEN_HPP

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/suite.hpp"

namespace rev::bench
{

/** The runs of a parsed snapshot. */
struct Golden
{
    std::map<std::pair<std::string, Config>, RunNumbers> runs;
    /** (benchmark, config) pairs with more than one `run` line. */
    std::vector<std::pair<std::string, Config>> duplicates;
};

/** Parse the snapshot at @p path; nullopt if missing or malformed. */
std::optional<Golden> readGolden(const std::string &path);

/** Write @p sweep as a snapshot at @p path. False on I/O failure. */
bool writeGolden(const Sweep &sweep, const std::string &path);

/** One tracked statistic (or whole run) that deviates from the snapshot. */
struct GoldenDiff
{
    std::string bench;
    Config config = Config::Base;
    std::string detail; ///< human-readable description of the mismatch
};

/**
 * Compare every (benchmark, config) run of @p sweep against the snapshot
 * at @p golden_path. Returns one entry per mismatching run and per
 * duplicate snapshot entry — empty means every tracked statistic is
 * bit-identical to the snapshot. The SweepOptions argument is not
 * consulted (entries carry no key).
 */
std::vector<GoldenDiff> compareToGolden(const Sweep &sweep,
                                        const SweepOptions &,
                                        const std::string &golden_path);

} // namespace rev::bench

#endif // REV_BENCH_GOLDEN_HPP
