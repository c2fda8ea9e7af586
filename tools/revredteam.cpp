/**
 * @file
 * revredteam — adversarial campaign CLI.
 *
 * Expands a seeded CampaignSpec into stratified tamper injections, runs
 * them through the differential detection oracle (src/redteam), and
 * writes the detection matrix as JSON. Exit status encodes the verdict:
 * 0 = no escapes, 1 = at least one escape (each printed with its
 * reproducer fingerprint, minimized first when --shrink is given),
 * 2 = usage error.
 *
 * Usage:
 *   revredteam [--seed N] [--quick] [--injections N] [--budget N]
 *              [--threads N] [--workloads a,b] [--out FILE]
 *              [--backend NAME] [--list-backends] [--shrink]
 *              [--disable-rev] [--no-snapshots] [--corpus DIR]
 *
 *   --quick          the CI / acceptance campaign (500 injections)
 *   --out            detection-matrix JSON path (default: stdout)
 *   --backend        validation backend under attack (default: rev);
 *                    verdicts consult that backend's claimed-coverage
 *                    matrix, so e.g. code substitution is Blind, not an
 *                    escape, under lofat
 *   --list-backends  print the registered backends and exit
 *   --shrink         minimize each escape to a reproducer plan
 *   --disable-rev    run without validation attached (oracle self-test:
 *                    divergent injections of detectable classes must
 *                    surface as escapes)
 *   --no-snapshots   run every injection cold from instruction zero
 *                    instead of forking it from a warmed COW snapshot
 *                    at its fire index. Matrices are byte-identical
 *                    either way — enforced in CI.
 *   --corpus DIR     replay every stored reproducer plan in DIR before
 *                    the sweep (a persistent regression gate: a stored
 *                    escape that still escapes fails the run), then
 *                    persist new escapes (post-shrink) and off-mechanism
 *                    detections into DIR as fp-<fingerprint>.json
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "redteam/campaign.hpp"
#include "redteam/corpus.hpp"
#include "redteam/shrink.hpp"
#include "validate/backend_cli.hpp"

namespace
{

using namespace rev;
using namespace rev::redteam;

struct Args
{
    CampaignSpec spec;
    std::string outPath;    ///< empty = stdout
    std::string corpusDir;  ///< empty = no corpus
    bool shrink = false;
    bool snapshots = true;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: revredteam [--seed N] [--quick] [--injections N]\n"
        "                  [--budget N] [--threads N] [--workloads a,b]\n"
        "                  [--out FILE] [--backend NAME] [--list-backends]\n"
        "                  [--shrink] [--disable-rev] [--no-snapshots]\n"
        "                  [--corpus DIR]\n");
    std::exit(code);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    args.spec = CampaignSpec::quick(1);
    auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(2);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed") {
            args.spec.seed = std::strtoull(next(i), nullptr, 0);
        } else if (arg == "--quick") {
            args.spec = CampaignSpec::quick(args.spec.seed);
        } else if (arg == "--injections") {
            args.spec.injections =
                parseCount<u64>("--injections", next(i), 1);
        } else if (arg == "--budget") {
            args.spec.instrBudget =
                parseCount<u64>("--budget", next(i), 1);
        } else if (arg == "--threads") {
            args.spec.threads =
                parseCount<unsigned>("--threads", next(i), 0, kMaxThreads);
        } else if (arg == "--workloads") {
            args.spec.workloads = parseNameList(next(i));
        } else if (validate::backendCliOptions(argc, argv, &i,
                                               &args.spec.backend)) {
            // shared --backend / --list-backends handling
        } else if (arg == "--out") {
            args.outPath = next(i);
        } else if (arg == "--shrink") {
            args.shrink = true;
        } else if (arg == "--no-snapshots") {
            args.snapshots = false;
        } else if (arg == "--corpus") {
            args.corpusDir = next(i);
        } else if (arg == "--disable-rev") {
            args.spec.disableRev = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(2);
        }
    }
    return args;
}

void
printSummary(const DetectionMatrix &m)
{
    std::fprintf(stderr,
                 "campaign seed %llu: %llu injections, backend %s%s\n",
                 static_cast<unsigned long long>(m.seed),
                 static_cast<unsigned long long>(m.injections),
                 validate::backendName(m.backend),
                 m.revEnabled ? "" : " (validation off)");
    std::fprintf(stderr, "%-14s %-10s %9s %9s %7s %7s %6s %8s\n", "class",
                 "mode", "injected", "detected", "crashed", "benign",
                 "blind", "escapes");
    for (const auto &[key, c] : m.cells)
        std::fprintf(stderr,
                     "%-14s %-10s %9llu %9llu %7llu %7llu %6llu %8llu\n",
                     key.first.c_str(), key.second.c_str(),
                     static_cast<unsigned long long>(c.injections),
                     static_cast<unsigned long long>(c.detected),
                     static_cast<unsigned long long>(c.crashed),
                     static_cast<unsigned long long>(c.benign),
                     static_cast<unsigned long long>(c.blind),
                     static_cast<unsigned long long>(c.escapes));
    const CellStats &t = m.total;
    std::fprintf(stderr,
                 "total: %llu detected, %llu crashed, %llu benign, "
                 "%llu blind, %llu escapes (%llu unfired, "
                 "%llu off-mechanism)\n",
                 static_cast<unsigned long long>(t.detected),
                 static_cast<unsigned long long>(t.crashed),
                 static_cast<unsigned long long>(t.benign),
                 static_cast<unsigned long long>(t.blind),
                 static_cast<unsigned long long>(t.escapes),
                 static_cast<unsigned long long>(t.unfired),
                 static_cast<unsigned long long>(t.offMechanism));
    if (t.detected) {
        std::fprintf(stderr, "mean detection latency: %.1f cycles\n",
                     static_cast<double>(t.latencySum) /
                         static_cast<double>(t.detected));
    }
    if (!m.coversAllCells())
        std::fprintf(stderr,
                     "warning: some (class, mode) cells received no "
                     "injections; raise --injections\n");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        Campaign campaign(args.spec);

        // Corpus replay: the persistent regression gate. Every stored
        // reproducer must have stopped escaping before the fresh sweep
        // counts for anything.
        u64 corpusEscapes = 0;
        if (!args.corpusDir.empty()) {
            const std::vector<CorpusEntry> corpus =
                loadCorpus(args.corpusDir);
            for (const CorpusEntry &e : corpus) {
                if (!campaign.canRun(e.plan)) {
                    std::fprintf(stderr,
                                 "corpus %s: skipped (workload/timing "
                                 "not in this campaign)\n",
                                 e.file.c_str());
                    continue;
                }
                const InjectionResult r = campaign.runPlan(e.plan);
                const bool escaped = r.verdict == Verdict::Escape &&
                                     !args.spec.disableRev;
                if (escaped)
                    ++corpusEscapes;
                std::fprintf(stderr, "corpus %s: %s%s\n", e.file.c_str(),
                             verdictName(r.verdict),
                             escaped ? " (STILL ESCAPING)" : "");
            }
        }

        DetectionMatrix matrix = campaign.run(args.snapshots);

        if (args.shrink && !matrix.escapes.empty()) {
            for (EscapeRecord &e : matrix.escapes) {
                const ShrinkResult s = shrinkEscape(campaign, e.plan);
                e.plan = s.plan;
                e.result = s.result;
                e.fingerprint = s.reproducerSeed;
            }
        }

        const std::string json = matrixToJson(matrix);
        if (args.outPath.empty()) {
            std::printf("%s\n", json.c_str());
        } else {
            std::ofstream os(args.outPath);
            if (!os) {
                std::fprintf(stderr, "cannot write %s\n",
                             args.outPath.c_str());
                return 2;
            }
            os << json << "\n";
        }
        printSummary(matrix);

        for (const EscapeRecord &e : matrix.escapes)
            std::fprintf(stderr, "escape fp=0x%llx (%s): %s\n",
                         static_cast<unsigned long long>(e.fingerprint),
                         e.result.reason.empty() ? "silent divergence"
                                                 : e.result.reason.c_str(),
                         planToJson(e.plan).c_str());

        // Persist what this sweep caught: escapes post-shrink (the
        // minimized plan is the reproducer worth keeping) and
        // off-mechanism detections (near-misses).
        if (!args.corpusDir.empty()) {
            u64 saved = 0;
            for (const EscapeRecord &e : matrix.escapes)
                saved += !saveCorpusPlan(args.corpusDir, e.plan).empty();
            for (const EscapeRecord &e : matrix.nearMisses)
                saved += !saveCorpusPlan(args.corpusDir, e.plan).empty();
            if (saved)
                std::fprintf(
                    stderr, "corpus: persisted %llu new reproducer(s)\n",
                    static_cast<unsigned long long>(saved));
        }

        // With REV disabled, escapes are the oracle working as intended.
        if (args.spec.disableRev)
            return 0;
        return matrix.escapes.empty() && corpusEscapes == 0 ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
