/**
 * Golden-statistics pinning: the quick sweep's tracked simulated numbers
 * must be bit-identical to the checked-in snapshot. This is the guard
 * that keeps the simulator's fast paths (decode cache, page-span memory
 * ops, trace replay) purely observational — any change to a simulated
 * statistic is a timing-model change and must come with a deliberate
 * snapshot refresh (see docs/COOKBOOK.md).
 *
 * The GoldenFile tests pin the snapshot format itself: what the writer
 * emits reads back clean, and a changed, missing, garbled or duplicated
 * entry is reported.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/golden.hpp"
#include "bench/suite.hpp"

namespace rev::bench
{
namespace
{

/** A per-process scratch file, removed when the test ends. */
struct TempFile
{
    std::string path;

    explicit TempFile(const std::string &name)
        : path(::testing::TempDir() + name + "." +
               std::to_string(::getpid()) + ".txt")
    {
    }
    ~TempFile() { std::remove(path.c_str()); }
};

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream is(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream os(path);
    for (const auto &line : lines)
        os << line << '\n';
}

/** Two hand-made runs of one benchmark; no simulation needed. */
Sweep
smallSweep()
{
    Sweep s;
    s.benchmarks = {"bzip2"};
    s.statics["bzip2"].numBlocks = 7;
    s.runs[{"bzip2", Config::Base}] = RunNumbers{.ipc = 1.25, .cycles = 80,
                                                 .instrs = 100};
    s.runs[{"bzip2", Config::Full32}] = RunNumbers{.ipc = 0.1, .cycles = 1000,
                                                   .instrs = 100};
    return s;
}

TEST(GoldenStats, QuickSweepMatchesPinnedSnapshot)
{
    SweepOptions opts = SweepOptions::quick();
    opts.threads = 0; // honor REV_BENCH_THREADS / hardware concurrency
    opts.progress = false;
    const Sweep sweep = runSweep(opts);

    const auto diffs =
        compareToGolden(sweep, opts, REV_GOLDEN_QUICK_SWEEP_PATH);
    for (const auto &d : diffs)
        ADD_FAILURE() << d.bench << "/" << configName(d.config) << ": "
                      << d.detail;
    EXPECT_TRUE(diffs.empty());
}

TEST(GoldenFile, WrittenQuickSweepReadsBackClean)
{
    const TempFile file("golden_written");
    std::string argv0 = "figures", quick = "--quick",
                flag = "--write-golden", path = file.path;
    char *argv[] = {argv0.data(), quick.data(), flag.data(), path.data()};
    SweepOptions opts = sweepOptionsFromArgs(4, argv);
    opts.progress = false;
    const Sweep sweep = runSweep(opts);

    EXPECT_TRUE(compareToGolden(sweep, opts, file.path).empty());

    // Same layout as the committed snapshot, apart from the key column
    // (the third field), which the writer leaves 0.
    std::vector<std::string> pinned = readLines(REV_GOLDEN_QUICK_SWEEP_PATH);
    for (std::size_t i = 1; i < pinned.size(); ++i) {
        std::istringstream ls(pinned[i]);
        std::string tag, bench, third;
        ls >> tag >> bench >> third;
        const std::string rest = pinned[i].substr(ls.tellg());
        if (tag == "static")
            pinned[i] = tag + ' ' + bench + " 0" + rest;
        else
            pinned[i] = tag + ' ' + bench + ' ' + third + " 0" +
                        rest.substr(rest.find(' ', 1));
    }
    EXPECT_EQ(readLines(file.path), pinned);
}

TEST(GoldenFile, OneChangedNumberIsOneDiff)
{
    const TempFile file("golden_changed");
    const Sweep sweep = smallSweep();
    ASSERT_TRUE(writeGolden(sweep, file.path));

    // Bump the cycles field of the full32 run.
    std::vector<std::string> lines = readLines(file.path);
    for (auto &line : lines)
        if (line.rfind("run bzip2 full32 ", 0) == 0)
            line.replace(line.find(" 1000 "), 6, " 1001 ");
    writeLines(file.path, lines);

    const auto diffs = compareToGolden(sweep, {}, file.path);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].bench, "bzip2");
    EXPECT_EQ(diffs[0].config, Config::Full32);
    EXPECT_EQ(diffs[0].detail,
              "statistics differ: cycles golden=1001 got=1000");
}

TEST(GoldenFile, MissingFileIsReported)
{
    const auto diffs =
        compareToGolden(smallSweep(), {}, "/nonexistent/golden.txt");
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].detail.find("missing or unreadable"),
              std::string::npos);
}

TEST(GoldenFile, GarbageOrWrongVersionIsReported)
{
    const TempFile file("golden_garbage");
    ASSERT_TRUE(writeGolden(smallSweep(), file.path));
    const std::vector<std::string> good = readLines(file.path);
    ASSERT_TRUE(readGolden(file.path));

    std::vector<std::string> wrong_version = good;
    wrong_version[0] = "revcache v7";
    std::vector<std::string> unknown_config = good;
    unknown_config.push_back("run bzip2 full128 0 1 2 3 4 5 6 7 8 9 10 11 "
                             "12 13 14");
    std::vector<std::string> short_line = good;
    short_line.push_back("run bzip2 base 0 1.5");
    for (const auto &lines :
         {std::vector<std::string>{"not a snapshot"}, wrong_version,
          unknown_config, short_line}) {
        writeLines(file.path, lines);
        EXPECT_FALSE(readGolden(file.path)) << lines.back();
        const auto diffs = compareToGolden(smallSweep(), {}, file.path);
        ASSERT_EQ(diffs.size(), 1u) << lines.back();
        EXPECT_NE(diffs[0].detail.find("missing or unreadable"),
                  std::string::npos);
    }
}

TEST(GoldenFile, DuplicateEntryIsReported)
{
    const TempFile file("golden_duplicate");
    ASSERT_TRUE(writeGolden(smallSweep(), file.path));
    std::vector<std::string> lines = readLines(file.path);
    lines.push_back(lines.back());
    writeLines(file.path, lines);

    const auto golden = readGolden(file.path);
    ASSERT_TRUE(golden);
    ASSERT_EQ(golden->duplicates.size(), 1u);

    const auto diffs = compareToGolden(smallSweep(), {}, file.path);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].detail, "duplicate golden entry");
    EXPECT_EQ(diffs[0].bench, golden->duplicates[0].first);
    EXPECT_EQ(diffs[0].config, golden->duplicates[0].second);
}

TEST(GoldenFile, RevbenchReferenceLoads)
{
    const auto golden = readGolden(REV_SWEEP_REFERENCE_PATH);
    ASSERT_TRUE(golden);
    EXPECT_EQ(golden->runs.size(), 90u);
    EXPECT_TRUE(golden->duplicates.empty());
}

} // namespace
} // namespace rev::bench
