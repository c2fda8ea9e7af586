/**
 * @file
 * Every table of the reproduction, from one run of the experiment
 * runner (sweep_runner.hpp): the paper sweep's tables -- Sec. VIII
 * basic-block statistics, Sec. V signature-table sizes, Figs. 6-12 and
 * the CFI-only overhead (Sec. V.D / VIII) -- then the steady-state
 * Fig. 7 and the design-choice ablations.
 *
 * Each table beyond the sweep declares its job list up front; all jobs
 * run on one worker pool, and the tables render in README order. The
 * command line is the sweep's (sweepOptionsFromArgs) and means the same
 * for every table: --bench restricts the rows, the budget B comes from
 * --instrs or --quick (ablations run B/4; steady state warms B/2 and
 * measures B), and --backend applies to the paper and steady-state
 * tables (the ablations vary REV's own parameters, so they run REV).
 * Bad input exits with status 2.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/sweep_runner.hpp"
#include "common/logging.hpp"
#include "workloads/profile.hpp"

namespace
{

using namespace rev::bench;
using rev::u64;
using rev::core::SimConfig;
using rev::workloads::WorkloadProfile;

void
printRule()
{
    std::printf("=============================================================="
                "==================\n");
}

void
printHeader(const Sweep &s, const char *title, const char *paper_ref)
{
    printRule();
    std::printf("%s\n", title);
    std::printf("Paper reference: %s\n", paper_ref);
    std::printf("Workloads: synthetic SPEC CPU 2006 stand-ins (see "
                "DESIGN.md); %llu instrs/run\n",
                static_cast<unsigned long long>(s.instrBudget));
    printRule();
}

/** The first @p k names of @p ranked (sorted descending), comma-joined. */
template <typename T>
std::string
topNames(std::vector<std::pair<T, std::string>> ranked, std::size_t k)
{
    std::sort(ranked.rbegin(), ranked.rend());
    std::string out;
    for (std::size_t i = 0; i < k && i < ranked.size(); ++i)
        out += (i ? ", " : "") + ranked[i].second;
    return out;
}

/**
 * Sec. VIII basic-block statistics: static block counts, instructions per
 * block, successors per block. Paper anchors: blocks range 20266 (mcf) ..
 * 92218 (gamess); instructions/block 5.5 (mcf) .. 10.02 (gamess);
 * successors/block 1.68 (soplex) .. 3.339 (gamess).
 */
void
renderBbStats(const Sweep &s)
{
    printHeader(s, "Sec. VIII -- static basic-block statistics",
                "blocks 20266(mcf)..92218(gamess); inst/BB 5.5..10.02; "
                "succ/BB 1.68(soplex)..3.34");
    std::printf("%-12s %10s %12s %10s %10s %12s\n", "benchmark", "blocks",
                "terminators", "inst/BB", "succ/BB", "code-bytes");
    for (const auto &b : s.benchmarks) {
        const auto &st = s.statics.at(b);
        std::printf("%-12s %10llu %12llu %10.2f %10.2f %12llu\n",
                    b.c_str(),
                    static_cast<unsigned long long>(st.numBlocks),
                    static_cast<unsigned long long>(st.numTerminators),
                    st.instrsPerBlock, st.succsPerBlock,
                    static_cast<unsigned long long>(st.codeBytes));
    }

    const auto mcf = s.statics.find("mcf");
    const auto gamess = s.statics.find("gamess");
    if (mcf != s.statics.end() && gamess != s.statics.end())
        std::printf("\nAnchors: mcf %llu blocks (paper 20266), gamess %llu "
                    "(paper 92218)\n",
                    static_cast<unsigned long long>(mcf->second.numBlocks),
                    static_cast<unsigned long long>(
                        gamess->second.numBlocks));
}

/**
 * Signature table sizes as a fraction of the binary (Sec. V.B/V.C/V.D).
 * Paper anchors: full tables 15% .. 52% of the executable, average 37%;
 * aggressive tables 40% .. 65% (about double); CFI-only tables 3% .. 20%,
 * average 9%; computed sites are ~10% of branch sites on average.
 */
void
renderSigSize(const Sweep &s)
{
    printHeader(s, "Sec. V -- signature table size as % of binary size",
                "full 15-52% (avg 37), aggressive 40-65%, CFI-only 3-20% "
                "(avg 9)");
    std::printf("%-12s %10s %10s %10s %14s\n", "benchmark", "full%",
                "aggr%", "cfi%", "computed/sites");
    double sum_f = 0, sum_a = 0, sum_c = 0, sum_dyn = 0;
    for (const auto &b : s.benchmarks) {
        const auto &st = s.statics.at(b);
        const double code = static_cast<double>(st.codeBytes);
        const double f = 100.0 * st.tableBytesFull / code;
        const double a = 100.0 * st.tableBytesAggressive / code;
        const double c = 100.0 * st.tableBytesCfi / code;
        const double dyn =
            100.0 * st.computedSites / static_cast<double>(st.branchSites);
        sum_f += f;
        sum_a += a;
        sum_c += c;
        sum_dyn += dyn;
        std::printf("%-12s %10.1f %10.1f %10.1f %13.1f%%\n", b.c_str(), f,
                    a, c, dyn);
    }
    const double n = static_cast<double>(s.benchmarks.size());
    std::printf("%-12s %10.1f %10.1f %10.1f %13.1f%%\n", "average",
                sum_f / n, sum_a / n, sum_c / n, sum_dyn / n);
    std::printf("\nPaper averages: full 37%%, CFI-only 9%%, computed sites "
                "~10%% of branches.\n");
}

/**
 * Figure 6: IPCs for the base case and REV with 32 KB / 64 KB signature
 * caches. The paper does not tabulate absolute IPCs; the properties to
 * reproduce are (a) REV's IPC tracks the base IPC closely for most
 * benchmarks, (b) the 64 KB SC closes part of the remaining gap, and
 * (c) gcc/gobmk show the largest gaps.
 */
void
renderFig6(const Sweep &s)
{
    printHeader(s,
                "Figure 6 -- IPC: base vs REV (32 KB SC) vs REV (64 KB SC)",
                "Sec. VIII, Fig. 6");
    std::printf("%-12s %10s %10s %10s\n", "benchmark", "base", "rev-32K",
                "rev-64K");
    double gbase = 0, g32 = 0, g64 = 0;
    for (const auto &b : s.benchmarks) {
        const double base = s.at(b, Config::Base).ipc;
        const double r32 = s.at(b, Config::Full32).ipc;
        const double r64 = s.at(b, Config::Full64).ipc;
        gbase += base;
        g32 += r32;
        g64 += r64;
        std::printf("%-12s %10.3f %10.3f %10.3f\n", b.c_str(), base, r32,
                    r64);
    }
    const double n = static_cast<double>(s.benchmarks.size());
    std::printf("%-12s %10.3f %10.3f %10.3f\n", "mean", gbase / n, g32 / n,
                g64 / n);
    std::printf("\nExpected shape: rev-64K >= rev-32K, both close to base "
                "except gcc/gobmk.\n");
}

/**
 * Figure 7: IPC overhead (% of base IPC) of REV for 32 KB and 64 KB
 * signature caches. Paper anchors: average 1.87% (32 KB) and 1.63%
 * (64 KB); every benchmark except gcc and gobmk below 5%; gobmk worst at
 * about 15%.
 */
void
renderFig7(const Sweep &s)
{
    printHeader(s, "Figure 7 -- IPC overhead (%) vs base for REV",
                "Sec. VIII, Fig. 7; avg 1.87% @32K, 1.63% @64K, gobmk ~15%");
    std::printf("%-12s %10s %10s\n", "benchmark", "ovh-32K%", "ovh-64K%");

    double sum32 = 0, sum64 = 0;
    std::string worst;
    double worst32 = -1;
    for (const auto &b : s.benchmarks) {
        const double o32 = overheadPct(s, b, Config::Full32);
        const double o64 = overheadPct(s, b, Config::Full64);
        sum32 += o32;
        sum64 += o64;
        if (o32 > worst32) {
            worst32 = o32;
            worst = b;
        }
        std::printf("%-12s %10.2f %10.2f\n", b.c_str(), o32, o64);
    }
    const double n = static_cast<double>(s.benchmarks.size());
    std::printf("%-12s %10.2f %10.2f   (paper: 1.87 / 1.63)\n", "average",
                sum32 / n, sum64 / n);
    std::printf("\nWorst case: %s at %.2f%% (paper: gobmk at ~15%%)\n",
                worst.c_str(), worst32);
    std::printf("64K <= 32K per benchmark: %s\n", [&] {
        for (const auto &b : s.benchmarks)
            if (overheadPct(s, b, Config::Full64) >
                overheadPct(s, b, Config::Full32) + 0.8)
                return "NO";
        return "yes";
    }());
}

/**
 * Figure 8: committed branches during execution. gcc (and gobmk) commit
 * very many branches; mcf's count is also high (short basic blocks) but
 * is compensated by SC hits (Sec. VIII discussion).
 */
void
renderFig8(const Sweep &s)
{
    printHeader(s, "Figure 8 -- committed branches during execution",
                "Sec. VIII, Fig. 8");
    std::printf("%-12s %14s %16s\n", "benchmark", "branches",
                "branches/kinstr");
    std::vector<std::pair<double, std::string>> density;
    for (const auto &b : s.benchmarks) {
        const auto &r = s.at(b, Config::Full32);
        const double per_k =
            1000.0 * static_cast<double>(r.committedBranches) / r.instrs;
        density.push_back({per_k, b});
        std::printf("%-12s %14llu %16.1f\n", b.c_str(),
                    static_cast<unsigned long long>(r.committedBranches),
                    per_k);
    }
    std::printf("\nHighest branch density: %s "
                "(paper: gcc and mcf among the highest)\n",
                topNames(density, 3).c_str());
}

/**
 * Figure 9: unique branches encountered during execution -- the SC
 * working-set driver. gcc's count is very high compared to the others
 * (with gobmk similar); the low-overhead group has small sets.
 */
void
renderFig9(const Sweep &s)
{
    printHeader(s, "Figure 9 -- unique branches during execution",
                "Sec. VIII, Fig. 9");
    std::printf("%-12s %14s %18s\n", "benchmark", "unique",
                "fits 32K SC (2048)?");
    std::vector<std::pair<u64, std::string>> ranked;
    for (const auto &b : s.benchmarks) {
        const u64 uniq = s.at(b, Config::Full32).uniqueBranches;
        ranked.push_back({uniq, b});
        std::printf("%-12s %14llu %18s\n", b.c_str(),
                    static_cast<unsigned long long>(uniq),
                    uniq < 2048 ? "yes" : "NO");
    }
    std::printf("\nLargest unique-branch sets: %s "
                "(paper: gcc, gobmk)\n",
                topNames(ranked, 2).c_str());
}

/**
 * Figure 10: signature-cache miss counts (32 KB SC). gcc and gobmk have
 * by far the highest counts (gobmk more than gcc), and overheads
 * correlate with them.
 */
void
renderFig10(const Sweep &s)
{
    printHeader(s, "Figure 10 -- signature cache miss counts (32 KB SC)",
                "Sec. VIII, Fig. 10");
    std::printf("%-12s %12s %12s %12s %12s\n", "benchmark", "complete",
                "partial", "total", "ovh-32K%");
    std::vector<std::pair<u64, std::string>> ranked;
    for (const auto &b : s.benchmarks) {
        const auto &r = s.at(b, Config::Full32);
        ranked.push_back({r.scMisses(), b});
        std::printf("%-12s %12llu %12llu %12llu %12.2f\n", b.c_str(),
                    static_cast<unsigned long long>(r.scCompleteMisses),
                    static_cast<unsigned long long>(r.scPartialMisses),
                    static_cast<unsigned long long>(r.scMisses()),
                    overheadPct(s, b, Config::Full32));
    }
    std::printf("\nHighest SC miss counts: %s (paper: gobmk, gcc)\n",
                topNames(ranked, 2).c_str());
}

/**
 * Figure 11: cache behaviour while servicing SC misses (32 KB SC). SC
 * fills travel through the regular hierarchy (L1D extra port -> L2 ->
 * DRAM). gcc's (and gobmk's) fills miss the on-chip caches far more
 * often, compounding their SC miss counts; gobmk has more L1 misses than
 * gcc.
 */
void
renderFig11(const Sweep &s)
{
    printHeader(s,
                "Figure 11 -- memory-hierarchy behaviour of SC miss service "
                "(32 KB)",
                "Sec. VIII, Fig. 11");
    std::printf("%-12s %12s %12s %12s %10s %10s\n", "benchmark", "fills",
                "L1D-miss", "L2-miss", "L1-miss%", "L2-miss%");
    for (const auto &b : s.benchmarks) {
        const auto &r = s.at(b, Config::Full32);
        const double l1p = r.scFillAccesses
                               ? 100.0 * r.scFillL1Misses / r.scFillAccesses
                               : 0.0;
        const double l2p = r.scFillL1Misses
                               ? 100.0 * r.scFillL2Misses / r.scFillL1Misses
                               : 0.0;
        std::printf("%-12s %12llu %12llu %12llu %10.1f %10.1f\n",
                    b.c_str(),
                    static_cast<unsigned long long>(r.scFillAccesses),
                    static_cast<unsigned long long>(r.scFillL1Misses),
                    static_cast<unsigned long long>(r.scFillL2Misses), l1p,
                    l2p);
    }
    std::printf("\nExpected: gcc/gobmk dominate fill traffic and miss the "
                "on-chip caches most.\n");
}

/**
 * Figure 12: IPC overhead with aggressive validation (every branch
 * target verified, Sec. V.C) for 32 KB and 64 KB SCs. Aggressive
 * validation performs slightly *better* than the default at equal SC
 * capacity because an entry verifies up to two successors, avoiding
 * partial misses on conditional branches.
 */
void
renderFig12(const Sweep &s)
{
    printHeader(s, "Figure 12 -- IPC overhead (%) with aggressive validation",
                "Sec. VIII, Fig. 12");
    std::printf("%-12s %10s %10s %12s\n", "benchmark", "agg-32K%",
                "agg-64K%", "full-32K%");
    double sum_a32 = 0, sum_a64 = 0, sum_f32 = 0;
    for (const auto &b : s.benchmarks) {
        const double a32 = overheadPct(s, b, Config::Agg32);
        const double a64 = overheadPct(s, b, Config::Agg64);
        const double f32 = overheadPct(s, b, Config::Full32);
        sum_a32 += a32;
        sum_a64 += a64;
        sum_f32 += f32;
        std::printf("%-12s %10.2f %10.2f %12.2f\n", b.c_str(), a32, a64,
                    f32);
    }
    const double n = static_cast<double>(s.benchmarks.size());
    std::printf("%-12s %10.2f %10.2f %12.2f\n", "average", sum_a32 / n,
                sum_a64 / n, sum_f32 / n);
    std::printf("\nExpected: aggressive average close to (slightly below) "
                "the full-validation average.\n");
}

/**
 * CFI-only validation overhead (Sec. V.D / Sec. VIII text). Only 1-10% of
 * executed branches are computed, giving a 0.04% to 1.68% overhead across
 * the SPEC benchmarks.
 */
void
renderCfiOnly(const Sweep &s)
{
    printHeader(s, "CFI-only validation -- IPC overhead (%)",
                "Sec. VIII text: 0.04% .. 1.68% across SPEC");
    std::printf("%-12s %10s %14s %16s\n", "benchmark", "ovh%",
                "validated-BBs", "vs full-32K ovh%");
    double worst = 0, sum = 0;
    for (const auto &b : s.benchmarks) {
        const double o = overheadPct(s, b, Config::Cfi32);
        const auto &r = s.at(b, Config::Cfi32);
        worst = std::max(worst, o);
        sum += o;
        std::printf("%-12s %10.2f %14llu %16.2f\n", b.c_str(), o,
                    static_cast<unsigned long long>(r.scFillAccesses),
                    overheadPct(s, b, Config::Full32));
    }
    std::printf("%-12s %10.2f\n", "average",
                sum / static_cast<double>(s.benchmarks.size()));
    std::printf("\nWorst CFI-only overhead: %.2f%% (paper: <= 1.68%%)\n",
                worst);
}

// ---------------------------------------------------------------------------
// Tables beyond the paper sweep: each declares its jobs, then renders them
// ---------------------------------------------------------------------------

/** The jobs of every table beyond the sweep, read back by index. */
struct Extras
{
    std::vector<Job> jobs;
    std::vector<JobResult> results;

    std::size_t
    add(const WorkloadProfile &prof, const SimConfig &cfg, u64 measure = 0)
    {
        jobs.push_back({prof, cfg, measure, measure ? "steady" : "ablation"});
        return jobs.size() - 1;
    }

    /** IPC overhead (%) of job @p i against the base job @p b. */
    double
    ovh(std::size_t b, std::size_t i) const
    {
        const double base = results[b].run.ipc;
        return 100.0 * (base - results[i].run.ipc) / base;
    }

    /** printf @p fmt with the overhead of each job @p row[from, to)
     *  against the row's base job, row[0]. */
    void
    cells(const std::vector<std::size_t> &row, std::size_t from,
          std::size_t to, const char *fmt) const
    {
        for (std::size_t i = from; i < to; ++i)
            std::printf(fmt, ovh(row[0], row[i]));
    }
};

/** One row of a table: a benchmark and the jobs its cells read. */
struct Row
{
    std::string name;
    std::vector<std::size_t> jobs;
};

using Table = std::function<void(const Extras &)>;

/** The profiles of @p names that --bench selects, in @p names' order. */
std::vector<WorkloadProfile>
rowsOf(const SweepOptions &opts, const std::vector<std::string> &names)
{
    std::vector<WorkloadProfile> out;
    for (const auto &n : names)
        if (opts.benchmarks.empty() ||
            std::count(opts.benchmarks.begin(), opts.benchmarks.end(), n))
            out.push_back(rev::workloads::specProfile(n));
    return out;
}

/** REV's default configuration at @p budget instructions. */
SimConfig
revAt(u64 budget)
{
    SimConfig cfg;
    cfg.core.maxInstrs = budget;
    return cfg;
}

/** The base core (no validation) at @p budget instructions. */
SimConfig
baseAt(u64 budget)
{
    SimConfig cfg = revAt(budget);
    cfg.withRev = false;
    return cfg;
}

/** The ablations' budget: a quarter of the sweep's. */
u64
ablationBudget(const SweepOptions &opts)
{
    return std::max<u64>(opts.instrBudget / 4, 1);
}

/** @p n as "2M", "500k" or plain digits. */
std::string
shortCount(u64 n)
{
    if (n % 1'000'000 == 0)
        return std::to_string(n / 1'000'000) + "M";
    if (n % 1'000 == 0)
        return std::to_string(n / 1'000) + "k";
    return std::to_string(n);
}

/**
 * Figure 7, steady state: IPC overhead measured after a warm-up quantum,
 * removing the cold-start SC misses that a short run over-weights
 * relative to the paper's 2 B-instruction simulations. Each run warms
 * every structure (caches, TLBs, predictor, SC) for B/2 instructions,
 * then measures quanta until B instructions (resumable runs share one
 * continuous cycle timebase).
 */
Table
declareSteady(Extras &x, const SweepOptions &opts)
{
    const u64 warm = std::max<u64>(opts.instrBudget / 2, 1);
    std::vector<std::string> names;
    for (const auto &p : rev::workloads::spec2006Profiles())
        names.push_back(p.name);
    std::vector<Row> rows;
    for (const auto &prof : rowsOf(opts, names)) {
        Row &r = rows.emplace_back(prof.name);
        for (Config c : {Config::Base, Config::Full32, Config::Full64}) {
            SimConfig cfg = sweepSimConfig(c, warm);
            if (cfg.withRev)
                cfg.backend = opts.backend;
            r.jobs.push_back(x.add(prof, cfg, opts.instrBudget));
        }
    }
    return [=, measured = opts.instrBudget](const Extras &x) {
        printRule();
        std::printf("Figure 7 (steady state) -- overhead after %s-instr "
                    "warm-up, %s measured\n",
                    shortCount(warm).c_str(), shortCount(measured).c_str());
        std::printf("Paper reference: Fig. 7 at 2B instrs: avg 1.87%% @32K, "
                    "1.63%% @64K\n");
        printRule();
        std::printf("%-12s %10s %10s\n", "benchmark", "ovh-32K%", "ovh-64K%");
        double sum32 = 0, sum64 = 0;
        std::string worst;
        double worst32 = -100;
        for (const Row &r : rows) {
            const double o32 = x.ovh(r.jobs[0], r.jobs[1]);
            const double o64 = x.ovh(r.jobs[0], r.jobs[2]);
            std::printf("%-12s %10.2f %10.2f\n", r.name.c_str(), o32, o64);
            sum32 += o32;
            sum64 += o64;
            if (o32 > worst32) {
                worst32 = o32;
                worst = r.name;
            }
        }
        const double n = static_cast<double>(rows.size());
        std::printf("%-12s %10.2f %10.2f   (paper: 1.87 / 1.63)\n", "average",
                    sum32 / n, sum64 / n);
        std::printf("\nWorst: %s at %.2f%% (paper: gobmk ~15%%)\n",
                    worst.c_str(), worst32);
    };
}

/**
 * Signature-cache geometry: capacity (8..128 KB) and associativity
 * (1..8 ways at 32 KB) for benchmarks spanning the paper's overhead
 * spectrum. The paper evaluates 32 KB vs 64 KB (Figs. 6/7); this extends
 * the sweep to show where the working-set knee sits.
 */
Table
declareSc(Extras &x, const SweepOptions &opts)
{
    const u64 budget = ablationBudget(opts);
    static constexpr unsigned kKb[] = {8, 16, 32, 64, 128};
    static constexpr unsigned kWays[] = {1, 2, 4, 8};
    std::vector<Row> rows; // base, one job per capacity, one per way count
    for (const auto &prof : rowsOf(opts, {"mcf", "h264ref", "gcc", "gobmk"})) {
        Row &r = rows.emplace_back(prof.name);
        r.jobs.push_back(x.add(prof, baseAt(budget)));
        for (unsigned kb : kKb) {
            SimConfig cfg = revAt(budget);
            cfg.rev.sc.sizeBytes = kb * 1024ull;
            r.jobs.push_back(x.add(prof, cfg));
        }
        for (unsigned ways : kWays) {
            SimConfig cfg = revAt(budget);
            cfg.rev.sc.assoc = ways;
            r.jobs.push_back(x.add(prof, cfg));
        }
    }
    return [=](const Extras &x) {
        printRule();
        std::printf("Ablation -- signature cache geometry (IPC overhead %%, "
                    "%llu instrs)\n",
                    static_cast<unsigned long long>(budget));
        printRule();
        std::printf("\nCapacity sweep (4-way):\n%-10s", "bench");
        for (unsigned kb : kKb)
            std::printf(" %7uKB", kb);
        std::printf("\n");
        for (const Row &r : rows) {
            std::printf("%-10s", r.name.c_str());
            x.cells(r.jobs, 1, 1 + std::size(kKb), " %8.2f");
            std::printf("\n");
        }
        std::printf("\nAssociativity sweep (32 KB):\n%-10s", "bench");
        for (unsigned ways : kWays)
            std::printf(" %7u-w", ways);
        std::printf("\n");
        for (const Row &r : rows) {
            std::printf("%-10s", r.name.c_str());
            x.cells(r.jobs, 1 + std::size(kKb), r.jobs.size(), " %8.2f");
            std::printf("\n");
        }
        std::printf("\nExpected: overhead falls monotonically-ish with "
                    "capacity; the knee sits\nbetween the benchmark's "
                    "unique-branch footprint and the entry count.\n");
    };
}

/**
 * CHG latency H vs the fetch-to-commit depth S (Sec. VI). The paper
 * argues H <= S = 16 lets hash generation overlap entirely with the
 * pipeline, and that for larger H one would add dummy post-commit stages.
 */
Table
declareChg(Extras &x, const SweepOptions &opts)
{
    const u64 budget = ablationBudget(opts);
    static constexpr unsigned kH[] = {4, 8, 16, 24, 32, 48};
    std::vector<Row> rows; // base, one job per latency
    for (const auto &prof : rowsOf(opts, {"bzip2", "soplex", "gcc"})) {
        Row &r = rows.emplace_back(prof.name);
        r.jobs.push_back(x.add(prof, baseAt(budget)));
        for (unsigned h : kH) {
            SimConfig cfg = revAt(budget);
            cfg.rev.chg.latency = h;
            r.jobs.push_back(x.add(prof, cfg));
        }
    }
    return [=](const Extras &x) {
        printRule();
        std::printf("Ablation -- CHG latency H vs pipeline depth S=16 "
                    "(IPC overhead %%)\n");
        printRule();
        std::printf("%-10s", "bench");
        for (unsigned h : kH)
            std::printf("   H=%-4u", h);
        std::printf("\n");
        for (const Row &r : rows) {
            std::printf("%-10s", r.name.c_str());
            x.cells(r.jobs, 1, r.jobs.size(), " %8.2f");
            std::printf("\n");
        }
        std::printf("\nExpected: flat through H=16 (fully overlapped), "
                    "rising beyond as commits\nwait on the digest -- the "
                    "paper's motivation for matching H to S.\n");
    };
}

/**
 * Signature-table design choices on h264ref: per-fill decrypt latency,
 * artificial split limits (Sec. IV.A) and CubeHash round count (Sec. VI
 * cites 5 rounds as meeting the latency budget). Table build times are
 * host time, so they go to stderr.
 */
Table
declareTableDesign(Extras &x, const SweepOptions &opts)
{
    const u64 budget = ablationBudget(opts);
    static constexpr unsigned kDecrypt[] = {0, 2, 8, 16, 32};
    static constexpr unsigned kSplit[] = {8, 16, 32, 64};
    static constexpr unsigned kRounds[] = {1, 2, 5, 8, 16};
    // Per row: base; one job per decrypt latency; a (base, REV) pair
    // per split limit; one job per round count.
    constexpr std::size_t kSplitAt = 1 + std::size(kDecrypt);
    constexpr std::size_t kRoundsAt = kSplitAt + 2 * std::size(kSplit);
    std::vector<Row> rows;
    for (const auto &prof : rowsOf(opts, {"h264ref"})) {
        Row &r = rows.emplace_back(prof.name);
        r.jobs.push_back(x.add(prof, baseAt(budget)));
        for (unsigned lat : kDecrypt) {
            SimConfig cfg = revAt(budget);
            cfg.rev.decryptLatency = lat;
            r.jobs.push_back(x.add(prof, cfg));
        }
        for (unsigned max_instrs : kSplit) {
            for (SimConfig cfg : {baseAt(budget), revAt(budget)}) {
                cfg.core.splitLimits.maxInstrs = max_instrs;
                r.jobs.push_back(x.add(prof, cfg));
            }
        }
        for (unsigned rounds : kRounds) {
            SimConfig cfg = revAt(budget);
            cfg.rev.chg.hashRounds = rounds;
            r.jobs.push_back(x.add(prof, cfg));
        }
    }
    return [=](const Extras &x) {
        printRule();
        std::printf("Ablation -- table decrypt latency, split limits, hash "
                    "rounds\n");
        printRule();
        std::printf("\nPer-fill decrypt latency (h264ref, overhead %%):\n");
        for (const Row &r : rows)
            for (std::size_t k = 0; k < std::size(kDecrypt); ++k)
                std::printf("  decrypt=%-3u %8.2f\n", kDecrypt[k],
                            x.ovh(r.jobs[0], r.jobs[1 + k]));
        std::printf("\nArtificial split limits (Sec. IV.A; table bytes + "
                    "overhead %%):\n");
        for (const Row &r : rows) {
            for (std::size_t k = 0; k < std::size(kSplit); ++k) {
                const std::size_t b = r.jobs[kSplitAt + 2 * k];
                const std::size_t i = r.jobs[kSplitAt + 2 * k + 1];
                std::printf(
                    "  maxInstrs=%-3u table=%8llu B  overhead=%6.2f%%\n",
                    kSplit[k],
                    static_cast<unsigned long long>(
                        x.results[i].sigTableBytes),
                    x.ovh(b, i));
            }
        }
        std::printf("\nCubeHash rounds (table build wall time on stderr; "
                    "overhead is latency-invariant\nsince H models the pipe "
                    "depth):\n");
        for (const Row &r : rows) {
            for (std::size_t k = 0; k < std::size(kRounds); ++k) {
                const std::size_t i = r.jobs[kRoundsAt + k];
                std::printf("  rounds=%-3u overhead=%6.2f%%\n", kRounds[k],
                            x.ovh(r.jobs[0], i));
                std::fprintf(stderr,
                             "[ablation] %s rounds=%-3u table build %5.0f "
                             "ms\n",
                             r.name.c_str(), kRounds[k],
                             1e3 * x.results[i].tableBuildSeconds);
            }
        }
        std::printf("\nExpected: decrypt latency adds linearly to SC miss "
                    "cost; tighter split\nlimits grow tables (more blocks) "
                    "and raise overhead, steeply at 16 and\nbelow (every "
                    "split adds a block to validate and an SC entry to "
                    "hold);\nhash rounds only affect the offline build.\n");
    };
}

/**
 * Return-edge validation scheme: the paper's delayed predecessor check
 * (Sec. V.A, contribution #4: "does not rely on the use of a shadow call
 * stack") vs a conventional shadow call stack.
 */
Table
declareReturn(Extras &x, const SweepOptions &opts)
{
    const u64 budget = ablationBudget(opts);
    SimConfig shadow = revAt(budget);
    shadow.rev.returnValidation = rev::validate::ReturnValidation::ShadowStack;
    std::vector<Row> rows; // base, delayed check, shadow stack
    for (const auto &prof :
         rowsOf(opts, {"bzip2", "mcf", "h264ref", "gcc", "gobmk"}))
        rows.push_back({prof.name,
                        {x.add(prof, baseAt(budget)),
                         x.add(prof, revAt(budget)), x.add(prof, shadow)}});
    return [=](const Extras &x) {
        printRule();
        std::printf("Ablation -- return validation: delayed predecessor "
                    "(paper) vs shadow stack\n");
        printRule();
        std::printf("%-10s %12s %12s %10s %10s\n", "bench", "delayed-ovh%",
                    "shadow-ovh%", "spills", "refills");
        for (const Row &r : rows) {
            const JobResult &s = x.results[r.jobs[2]];
            std::printf("%-10s %12.2f %12.2f %10llu %10llu\n",
                        r.name.c_str(), x.ovh(r.jobs[0], r.jobs[1]),
                        x.ovh(r.jobs[0], r.jobs[2]),
                        static_cast<unsigned long long>(s.shadowSpills),
                        static_cast<unsigned long long>(s.shadowRefills));
        }
        std::printf("\nBoth schemes authenticate every return. At these call "
                    "depths the shadow\nstack never spills and costs less "
                    "than the delayed check, whose predecessor\nlists add "
                    "table walks and MRU partial misses; the paper's scheme "
                    "wins on\nstructure, not speed: no on-chip stack and no "
                    "spill path at any depth.\n");
    };
}

/**
 * Background DMA interference (Table 2 provisions 64 DMA channels with
 * 64-byte bursts). DMA bursts contend with demand misses and SC fills
 * for the DRAM banks; base and REV both see the same traffic.
 */
Table
declareDma(Extras &x, const SweepOptions &opts)
{
    const u64 budget = ablationBudget(opts);
    static constexpr u64 kInterval[] = {0, 64, 16, 4};
    std::vector<Row> rows; // a (base, REV) pair per DMA interval
    for (const auto &prof :
         rowsOf(opts, {"mcf", "libquantum", "gcc", "gobmk"})) {
        Row &r = rows.emplace_back(prof.name);
        for (u64 interval : kInterval) {
            for (SimConfig cfg : {baseAt(budget), revAt(budget)}) {
                cfg.mem.dmaIntervalCycles = interval;
                r.jobs.push_back(x.add(prof, cfg));
            }
        }
    }
    return [=](const Extras &x) {
        printRule();
        std::printf("Ablation -- background DMA traffic (IPC overhead %% vs "
                    "quiet base)\n");
        printRule();
        std::printf("%-10s", "bench");
        for (u64 interval : kInterval)
            if (interval)
                std::printf("  dma/%-4llu",
                            static_cast<unsigned long long>(interval));
            else
                std::printf("   no-dma ");
        std::printf("\n");
        for (const Row &r : rows) {
            std::printf("%-10s", r.name.c_str());
            for (std::size_t k = 0; k < r.jobs.size(); k += 2)
                std::printf(" %9.2f", x.ovh(r.jobs[k], r.jobs[k + 1]));
            std::printf("\n");
        }
        std::printf("\nFinding: background DMA raises no benchmark's REV "
                    "overhead by more than 0.2\npoints, so validation does "
                    "not amplify I/O interference. The relative\noverhead "
                    "is not stable, though: mcf, gcc and gobmk stay within "
                    "0.7 points of\ntheir no-DMA values, but libquantum's "
                    "falls by over a third at dma/16, where\nthe baseline "
                    "slows more than REV does.\n");
    };
}

/**
 * Seed robustness of the stand-in workloads. The paper reports the
 * harmonic mean of 5 runs per benchmark; these simulations are
 * deterministic, but the synthetic workloads are parameterized by a
 * generation seed, so each benchmark is regenerated with three seeds.
 */
Table
declareSeeds(Extras &x, const SweepOptions &opts)
{
    const u64 budget = ablationBudget(opts);
    std::vector<Row> rows; // a (base, REV) pair per seed
    for (auto prof : rowsOf(
             opts, {"bzip2", "mcf", "h264ref", "gcc", "gobmk", "soplex"})) {
        Row &r = rows.emplace_back(prof.name);
        for (int k = 0; k < 3; ++k, prof.seed += 1000)
            for (const SimConfig &cfg : {baseAt(budget), revAt(budget)})
                r.jobs.push_back(x.add(prof, cfg));
    }
    return [=](const Extras &x) {
        printRule();
        std::printf("Methodology -- REV overhead (%%) across workload "
                    "generation seeds\n");
        printRule();
        std::printf("%-12s %9s %9s %9s %10s\n", "benchmark", "seed+0",
                    "seed+1", "seed+2", "spread");
        for (const Row &r : rows) {
            double lo = 1e9, hi = -1e9;
            std::printf("%-12s", r.name.c_str());
            for (std::size_t k = 0; k < r.jobs.size(); k += 2) {
                const double ovh = x.ovh(r.jobs[k], r.jobs[k + 1]);
                lo = std::min(lo, ovh);
                hi = std::max(hi, ovh);
                std::printf(" %9.2f", ovh);
            }
            std::printf(" %9.2f\n", hi - lo);
        }
        std::printf("\nReading: the extremes keep their rank across instances "
                    "(gobmk worst, gcc\nnext), but a low-overhead benchmark's "
                    "spread can exceed its gap to its\nneighbours (bzip2's "
                    "does, to mcf and soplex): only differences larger\nthan "
                    "the spread column say something about the profile.\n");
    };
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const SweepOptions opts = sweepOptionsFromArgs(argc, argv);
        Extras x;
        std::vector<Table> tables;
        for (auto declare : {declareSteady, declareSc, declareChg,
                             declareTableDesign, declareReturn, declareDma,
                             declareSeeds})
            tables.push_back(declare(x, opts));
        const Sweep s = SweepRunner(opts).run(x.jobs, &x.results);
        for (auto render :
             {renderBbStats, renderSigSize, renderFig6, renderFig7,
              renderFig8, renderFig9, renderFig10, renderFig11, renderFig12,
              renderCfiOnly})
            render(s);
        for (const Table &render : tables)
            render(x);
        return 0;
    } catch (const rev::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
