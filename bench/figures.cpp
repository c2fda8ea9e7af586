/**
 * @file
 * Every table the paper's sweep feeds, from one sweep: Sec. VIII
 * basic-block statistics, Sec. V signature-table sizes, Figs. 6-12 and
 * the CFI-only overhead (Sec. V.D / VIII).
 *
 * All of them read the same 15-benchmark x 6-config experiment, so the
 * sweep runs once and each table renders from it in README order. The
 * command line is the sweep's (sweepOptionsFromArgs); bad input exits
 * with status 2.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/suite.hpp"
#include "common/logging.hpp"

namespace
{

using namespace rev::bench;
using rev::u64;

void
printHeader(const Sweep &s, const char *title, const char *paper_ref)
{
    std::printf("=============================================================="
                "==================\n");
    std::printf("%s\n", title);
    std::printf("Paper reference: %s\n", paper_ref);
    std::printf("Workloads: synthetic SPEC CPU 2006 stand-ins (see "
                "DESIGN.md); %llu instrs/run\n",
                static_cast<unsigned long long>(s.instrBudget));
    std::printf("=============================================================="
                "==================\n");
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

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Sweep s = runSweep(sweepOptionsFromArgs(argc, argv));
        for (auto render :
             {renderBbStats, renderSigSize, renderFig6, renderFig7,
              renderFig8, renderFig9, renderFig10, renderFig11, renderFig12,
              renderCfiOnly})
            render(s);
        return 0;
    } catch (const rev::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
