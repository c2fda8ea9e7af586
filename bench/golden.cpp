#include "bench/golden.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

namespace rev::bench
{

namespace
{

constexpr const char *kMagic = "revcache";
constexpr const char *kVersion = "v8";

/** Signature-table bytes a run of @p c loads (0 for the base core). */
u64
tableBytesOf(const StaticNumbers &st, Config c)
{
    switch (c) {
      case Config::Base: return 0;
      case Config::Full32:
      case Config::Full64: return st.tableBytesFull;
      case Config::Agg32:
      case Config::Agg64: return st.tableBytesAggressive;
      case Config::Cfi32: return st.tableBytesCfi;
    }
    return 0;
}

/** Append "name golden=x got=y" for every field that differs. */
void
describeDiffs(const RunNumbers &golden, const RunNumbers &got,
              std::ostringstream &os)
{
    auto field = [&](const char *name, auto g, auto r) {
        if (g != r)
            os << ' ' << name << " golden=" << g << " got=" << r;
    };
    field("ipc", golden.ipc, got.ipc);
    field("cycles", golden.cycles, got.cycles);
    field("instrs", golden.instrs, got.instrs);
    field("committed_branches", golden.committedBranches,
          got.committedBranches);
    field("unique_branches", golden.uniqueBranches, got.uniqueBranches);
    field("mispredicts", golden.mispredicts, got.mispredicts);
    field("sc_complete_misses", golden.scCompleteMisses,
          got.scCompleteMisses);
    field("sc_partial_misses", golden.scPartialMisses, got.scPartialMisses);
    field("commit_stall_cycles", golden.commitStallCycles,
          got.commitStallCycles);
    field("sc_fill_accesses", golden.scFillAccesses, got.scFillAccesses);
    field("sc_fill_l1_misses", golden.scFillL1Misses, got.scFillL1Misses);
    field("sc_fill_l2_misses", golden.scFillL2Misses, got.scFillL2Misses);
    field("violations", golden.violations, got.violations);
}

} // namespace

std::optional<Golden>
readGolden(const std::string &path)
{
    std::ifstream is(path);
    std::string magic, version;
    if (!(is >> magic >> version) || magic != kMagic || version != kVersion)
        return std::nullopt;

    std::map<std::string, Config> by_name;
    for (Config c : kAllConfigs)
        by_name[configName(c)] = c;

    Golden golden;
    std::string line;
    std::getline(is, line); // rest of the header line
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string tag, bench, cname, key;
        if (!(ls >> tag))
            continue; // blank line
        if (tag == "static")
            continue;
        RunNumbers r;
        ls >> bench >> cname >> key >> r.ipc >> r.cycles >> r.instrs >>
            r.committedBranches >> r.uniqueBranches >> r.mispredicts >>
            r.scCompleteMisses >> r.scPartialMisses >> r.commitStallCycles >>
            r.scFillAccesses >> r.scFillL1Misses >> r.scFillL2Misses >>
            r.violations;
        if (tag != "run" || !ls || !by_name.count(cname))
            return std::nullopt;
        const std::pair<std::string, Config> id{bench, by_name[cname]};
        if (!golden.runs.emplace(id, r).second)
            golden.duplicates.push_back(id);
    }
    return golden;
}

bool
writeGolden(const Sweep &sweep, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << std::setprecision(17); // doubles round-trip exactly
    os << kMagic << ' ' << kVersion << '\n';
    for (const auto &[bench, st] : sweep.statics)
        os << "static " << bench << " 0 " << st.numBlocks << ' '
           << st.numTerminators << ' ' << st.instrsPerBlock << ' '
           << st.succsPerBlock << ' ' << st.codeBytes << ' '
           << st.computedSites << ' ' << st.branchSites << ' '
           << st.tableBytesFull << ' ' << st.tableBytesAggressive << ' '
           << st.tableBytesCfi << '\n';
    for (const auto &[id, r] : sweep.runs) {
        const auto st = sweep.statics.find(id.first);
        const u64 table_bytes = st == sweep.statics.end()
                                    ? 0
                                    : tableBytesOf(st->second, id.second);
        os << "run " << id.first << ' ' << configName(id.second) << " 0 "
           << r.ipc << ' ' << r.cycles << ' ' << r.instrs << ' '
           << r.committedBranches << ' ' << r.uniqueBranches << ' '
           << r.mispredicts << ' ' << r.scCompleteMisses << ' '
           << r.scPartialMisses << ' ' << r.commitStallCycles << ' '
           << r.scFillAccesses << ' ' << r.scFillL1Misses << ' '
           << r.scFillL2Misses << ' ' << r.violations << ' ' << table_bytes
           << '\n';
    }
    return static_cast<bool>(os);
}

std::vector<GoldenDiff>
compareToGolden(const Sweep &sweep, const SweepOptions &,
                const std::string &golden_path)
{
    std::vector<GoldenDiff> diffs;
    const std::optional<Golden> golden = readGolden(golden_path);
    if (!golden) {
        diffs.push_back({"", Config::Base,
                         "golden snapshot missing or unreadable: " +
                             golden_path});
        return diffs;
    }
    for (const auto &[bench, c] : golden->duplicates)
        diffs.push_back({bench, c, "duplicate golden entry"});

    for (const auto &[id, got] : sweep.runs) {
        const auto ref = golden->runs.find(id);
        if (ref == golden->runs.end()) {
            diffs.push_back({id.first, id.second, "no golden entry"});
            continue;
        }
        if (ref->second == got)
            continue;
        std::ostringstream os;
        describeDiffs(ref->second, got, os);
        diffs.push_back(
            {id.first, id.second, "statistics differ:" + os.str()});
    }
    return diffs;
}

} // namespace rev::bench
