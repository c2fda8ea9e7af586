/**
 * @file
 * revverify — the standalone attestation-verifier service harness.
 *
 * Drives the session-multiplexed VerifierService with the built-in load
 * generator: records one measurement stream per (workload, backend)
 * with the real simulator, fans the corpus out as N concurrent prover
 * sessions over the chosen transport (in-memory rings or Unix-domain
 * socketpairs), and adjudicates every session's verdict against the
 * inline backend's golden. Reports verifications/sec, p50/p99
 * close-to-verdict session latency, bytes/session, dedup hit rate, and
 * peak RSS, and writes them to a JSON report (BENCH_verifier.json).
 * Exits nonzero when any session's verdict, reason, or counters diverge
 * from inline validation — the CI contract that the attestation split
 * changes no result.
 *
 * Usage:
 *   revverify [--sessions N] [--workers N] [--provers N] [--instrs N]
 *             [--bench a,b,c] [--chunk BYTES] [--backend NAME]
 *             [--transport mem|socket] [--dedup N | --no-dedup]
 *             [--window N] [--verdicts-out FILE]
 *             [--list-backends] [--quick] [--soak] [--out FILE]
 *
 *   --quick        small smoke preset (64 sessions, 20k instrs, bzip2)
 *   --soak         100k-session soak preset (short streams, bounded
 *                  4096-session window, 64 KiB transports)
 *   --transport    session transport (default mem)
 *   --dedup        shared verified-unit cache entries (default 65536)
 *   --no-dedup     disable cross-session dedup
 *   --window       live-session cap, 0 = all at once
 *   --verdicts-out write the canonical sorted verdict stream here (CI
 *                  cmp's memory vs socket byte for byte)
 *   --backend      restrict the corpus to one backend (default rev+lofat)
 *   --out          JSON report path (default BENCH_verifier.json)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "validate/backend_cli.hpp"
#include "verifier/loadgen.hpp"

namespace
{

using namespace rev;

struct Args
{
    verifier::LoadGenOptions opts;
    std::string outPath = "BENCH_verifier.json";
    std::string verdictsPath; ///< empty = don't write
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: revverify [--sessions N] [--workers N] [--provers N]\n"
        "                 [--instrs N] [--bench a,b,c] [--chunk BYTES]\n"
        "                 [--transport mem|socket] [--dedup N | --no-dedup]\n"
        "                 [--window N] [--verdicts-out FILE]\n"
        "                 [--quick] [--soak] [--out FILE] %s\n",
        validate::kBackendCliUsage);
    std::exit(code);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    validate::Backend backend = validate::Backend::Rev;
    auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(2);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sessions") {
            args.opts.sessions = parseCount<unsigned>("--sessions", next(i));
        } else if (arg == "--workers") {
            args.opts.workers =
                parseCount<unsigned>("--workers", next(i), 0, kMaxThreads);
        } else if (arg == "--provers") {
            args.opts.provers =
                parseCount<unsigned>("--provers", next(i), 0, kMaxThreads);
        } else if (arg == "--instrs") {
            args.opts.instrBudget = parseCount<u64>("--instrs", next(i), 1);
        } else if (arg == "--chunk") {
            args.opts.chunkBytes = parseCount<std::size_t>("--chunk", next(i));
        } else if (arg == "--bench") {
            args.opts.benchmarks = parseNameList(next(i));
        } else if (arg == "--transport") {
            const std::string t = next(i);
            if (t == "mem" || t == "memory")
                args.opts.transport = verifier::TransportKind::Memory;
            else if (t == "socket")
                args.opts.transport = verifier::TransportKind::Socket;
            else
                usage(2);
        } else if (arg == "--dedup") {
            args.opts.dedupEntries =
                parseCount<std::size_t>("--dedup", next(i));
        } else if (arg == "--no-dedup") {
            args.opts.dedupEntries = 0;
        } else if (arg == "--window") {
            args.opts.window = parseCount<unsigned>("--window", next(i));
        } else if (arg == "--verdicts-out") {
            args.verdictsPath = next(i);
        } else if (arg == "--quick") {
            args.opts.sessions = 64;
            args.opts.instrBudget = 20000;
            args.opts.benchmarks = {"bzip2"};
        } else if (arg == "--soak") {
            // The 100k soak: short streams (throughput dominated by
            // session turnover, not stream length), a bounded live
            // window so memory stays flat, small per-session
            // transports.
            args.opts.sessions = 100000;
            args.opts.instrBudget = 5000;
            args.opts.window = 4096;
            args.opts.ringBytes = 64 * 1024;
        } else if (arg == "--out") {
            args.outPath = next(i);
        } else if (validate::backendCliOptions(argc, argv, &i, &backend)) {
            args.opts.backends = {backend};
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "revverify: unknown argument '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }
    return args;
}

/** Peak resident set of this process, in bytes (0 when unavailable). */
u64
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<u64>(ru.ru_maxrss); // bytes on Darwin
#else
    return static_cast<u64>(ru.ru_maxrss) * 1024; // KiB on Linux
#endif
#else
    return 0;
#endif
}

void
writeReport(const Args &args, const verifier::LoadGenReport &r)
{
    std::ofstream os(args.outPath);
    if (!os)
        fatal("revverify: cannot write ", args.outPath);
    os << "{\n"
       << "  \"schema\": \"rev-verifier-v3\",\n"
       << "  \"sessions\": " << r.sessions << ",\n"
       << "  \"workers\": " << r.workers << ",\n"
       << "  \"provers\": " << r.provers << ",\n"
       << "  \"transport\": \"" << verifier::transportName(r.transport)
       << "\",\n"
       << "  \"cases\": [\n";
    for (std::size_t i = 0; i < r.cases.size(); ++i) {
        const verifier::StreamCase &c = r.cases[i];
        os << "    {\"bench\": \"" << c.bench << "\", \"backend\": \""
           << validate::backendName(c.backend) << "\", \"stream_bytes\": "
           << c.stream.size() << ", \"replayed\": "
           << (c.replayed ? "true" : "false") << ", \"detected\": "
           << (c.detected ? "true" : "false") << ", \"bb_validated\": "
           << c.bbValidated << "}"
           << (i + 1 < r.cases.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"capture_seconds\": " << r.captureSeconds << ",\n"
       << "  \"wall_seconds\": " << r.wallSeconds << ",\n"
       << "  \"verifications_per_sec\": " << r.verificationsPerSec << ",\n"
       << "  \"p50_latency_seconds\": " << r.p50LatencySeconds << ",\n"
       << "  \"p99_latency_seconds\": " << r.p99LatencySeconds << ",\n"
       << "  \"bytes_per_session\": " << r.bytesPerSession << ",\n"
       << "  \"peak_transport_bytes_per_session\": "
       << r.peakBytesPerSession << ",\n"
       << "  \"max_peak_transport_bytes\": " << r.maxPeakBytes << ",\n"
       << "  \"total_stream_bytes\": " << r.totalBytes << ",\n"
       << "  \"dedup_hits\": " << r.dedupHits << ",\n"
       << "  \"dedup_misses\": " << r.dedupMisses << ",\n"
       << "  \"dedup_evictions\": " << r.dedupEvictions << ",\n"
       << "  \"dedup_hit_rate\": " << r.dedupHitRate << ",\n"
       << "  \"peak_rss_bytes\": " << peakRssBytes() << ",\n"
       << "  \"divergences\": " << r.divergences.size() << "\n"
       << "}\n";
}

void
writeVerdicts(const std::string &path, const verifier::LoadGenReport &r)
{
    std::ofstream os(path);
    if (!os)
        fatal("revverify: cannot write ", path);
    for (const std::string &line : r.verdictLines)
        os << line << "\n";
}

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    const verifier::LoadGenReport r = verifier::runLoadGen(args.opts);
    writeReport(args, r);
    if (!args.verdictsPath.empty())
        writeVerdicts(args.verdictsPath, r);

    std::printf(
        "revverify: %u sessions (%zu cases, %s transport), "
        "%.0f verifications/s, p50 %.3fms p99 %.3fms, %.0f bytes/session "
        "(transport peak %.0f avg / %llu max), dedup %.1f%% hit "
        "(%llu/%llu, %llu evicted), rss %.1f MiB, "
        "capture %.2fs run %.2fs -> %s\n",
        r.sessions, r.cases.size(), verifier::transportName(r.transport),
        r.verificationsPerSec, r.p50LatencySeconds * 1e3,
        r.p99LatencySeconds * 1e3, r.bytesPerSession,
        r.peakBytesPerSession,
        static_cast<unsigned long long>(r.maxPeakBytes),
        r.dedupHitRate * 100,
        static_cast<unsigned long long>(r.dedupHits),
        static_cast<unsigned long long>(r.dedupHits + r.dedupMisses),
        static_cast<unsigned long long>(r.dedupEvictions),
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0),
        r.captureSeconds, r.wallSeconds, args.outPath.c_str());

    if (!r.divergences.empty()) {
        const std::size_t show =
            std::min<std::size_t>(r.divergences.size(), 20);
        for (std::size_t i = 0; i < show; ++i) {
            const verifier::Divergence &d = r.divergences[i];
            const verifier::StreamCase &c = r.cases[d.caseIdx];
            std::fprintf(stderr,
                         "revverify: DIVERGENCE session %llu (%s/%s): %s\n",
                         static_cast<unsigned long long>(d.session),
                         c.bench.c_str(),
                         validate::backendName(c.backend),
                         d.detail.c_str());
        }
        std::fprintf(stderr, "revverify: %zu/%u sessions diverged\n",
                     r.divergences.size(), r.sessions);
        return 1;
    }
    std::printf("revverify: all %u session verdicts match inline "
                "validation\n",
                r.sessions);
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
