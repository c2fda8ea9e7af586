/**
 * @file
 * revbench — the repository benchmark.
 *
 *   revbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--data DIR] [--trace-out FILE] [--write-reference]
 *
 * Workloads: sweep, campaign, campaign-serial, verify-fleet,
 * verify-diverse. An untraced
 * run prints every end-to-end metric; a traced run (--trace 1) runs the
 * timed part once untraced and once with spans on, then the layer pass,
 * and prints every per-layer metric plus the self-time table and the
 * tracing overhead. The last stdout line is always one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Human-readable tables go to stderr. Exit status: 0 when every check
 * passed, 1 when an output was wrong, 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "harness.hpp"
#include "tracer.hpp"

namespace revbench
{

void
Outcome::fail(const std::string &why)
{
    if (correct)
        std::fprintf(stderr, "revbench: CHECK FAILED: %s\n", why.c_str());
    correct = false;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i =
        static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
tailQuantile(std::vector<double> v, double *pct)
{
    const double n = static_cast<double>(v.size());
    const double q = v.size() > 10 ? std::min(0.99, (n - 10) / n) : 1.0;
    if (pct)
        *pct = q * 100;
    return quantile(std::move(v), q);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace revbench

namespace
{

using namespace revbench;

/** Layers every traced run exercises (self time reported per layer). */
const char *const kLayers[] = {"workloads", "program", "sig",
                               "core",      "mem",     "validate",
                               "redteam",   "verifier"};

/** What each generic end-to-end metric is called on @p workload. */
const char *
alias(const std::string &workload, const std::string &metric)
{
    const bool verify = workload.rfind("verify-", 0) == 0;
    if (metric == "run_s")
        return workload == "sweep" ? "sweep_s"
               : verify            ? "closed_batch_s"
                                   : "campaign_s";
    if (metric == "ops_per_s")
        return workload == "sweep" ? "sim_instr_per_s (sim_mips x 1e6)"
               : verify            ? "verifications_per_s"
                                   : "injections_per_s";
    if (metric == "p50_ms")
        return verify ? "verify_p50_ms"
               : workload == "sweep" ? "job_p50_ms"
                                     : "plan_p50_ms";
    if (metric == "p99_ms")
        return verify ? "verify_p99_ms"
               : workload == "sweep" ? "job_p99_ms"
                                     : "plan_p99_ms";
    return "";
}

[[noreturn]] void
usage(int code)
{
    std::fprintf(stderr,
                 "usage: revbench --workload sweep|campaign|campaign-serial|\n"
                 "                verify-fleet|verify-diverse\n"
                 "                --seed N --seconds S --trace 0|1\n"
                 "                [--data DIR] [--trace-out FILE] "
                 "[--write-reference]\n");
    std::exit(code);
}

RunArgs
parseArgs(int argc, char **argv)
{
    RunArgs a;
    auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(2);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload")
            a.workload = next(i);
        else if (arg == "--seed")
            a.seed = std::strtoull(next(i), nullptr, 0);
        else if (arg == "--seconds")
            a.seconds = std::strtod(next(i), nullptr);
        else if (arg == "--trace")
            a.trace = std::strcmp(next(i), "0") != 0;
        else if (arg == "--data")
            a.dataDir = next(i);
        else if (arg == "--trace-out")
            a.traceOut = next(i);
        else if (arg == "--write-reference")
            a.writeReference = true;
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(2);
        }
    }
    if (a.workload.empty() || !(a.seconds > 0))
        usage(2);
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sweep")
        return makeSweepWorkload();
    if (name == "campaign")
        return makeCampaignWorkload(2);
    if (name == "campaign-serial")
        return makeCampaignWorkload(1);
    if (name == "verify-fleet")
        return makeVerifyWorkload(false);
    if (name == "verify-diverse")
        return makeVerifyWorkload(true);
    std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
    usage(2);
}

/** Spans on: the untraced reference half, the traced half, the layer
 *  pass. Per-layer metrics, self times and overhead go into @p out. */
void
tracedRun(const RunArgs &args, Workload &w, Outcome &out)
{
    trace::setEnabled(true);
    w.setup(args, 1, out);
    trace::setEnabled(false);
    Outcome untraced;
    w.measure(args.seconds / 2, untraced);
    trace::setEnabled(true);
    w.measure(args.seconds / 2, out);
    runLayerPass(args, w, out);
    trace::setEnabled(false);

    out.count(untraced.attempted, untraced.failed);
    if (!untraced.correct)
        out.correct = false;
    out.layer("trace.overhead_ms",
              (out.endToEnd["run_s"].value - untraced.endToEnd["run_s"].value) *
                  1e3,
              "ms");

    const std::map<std::string, double> self = trace::selfTimeByLayer();
    std::fprintf(stderr, "\nper-layer self time (traced run)\n");
    for (const auto &[layer, secs] : self)
        std::fprintf(stderr, "  %-10s %10.4f s\n", layer.c_str(), secs);
    for (const char *layer : kLayers) {
        const auto it = self.find(layer);
        out.layer(std::string("selftime.") + layer + "_s",
                  it == self.end() ? 0 : it->second, "s");
    }
    const std::vector<trace::Span> spans = trace::spans();
    out.layer("trace.spans", static_cast<double>(spans.size()), "count");
    if (!args.traceOut.empty()) {
        if (trace::writeJson(args.traceOut))
            std::fprintf(stderr, "spans: %zu -> %s\n", spans.size(),
                         args.traceOut.c_str());
        else
            std::fprintf(stderr, "spans: cannot write %s\n",
                         args.traceOut.c_str());
    }
}

void
printTable(const char *title, const RunArgs &args,
           const std::map<std::string, Metric> &metrics)
{
    std::fprintf(stderr, "\n%s (%s, seed %llu)\n", title,
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed));
    for (const auto &[name, m] : metrics) {
        const char *a = alias(args.workload, name);
        std::fprintf(stderr, "  %-34s %16.6g %-12s %s\n", name.c_str(),
                     m.value, m.unit.c_str(), a);
    }
}

void
printJson(const Outcome &out, const std::map<std::string, Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    bool first = true;
    for (const auto &[name, m] : metrics) {
        // A failed operation counts as over any limit: JSON has no
        // infinity, so report the largest finite double.
        const double v = std::isfinite(m.value) ? m.value : DBL_MAX;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), v, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const RunArgs args = parseArgs(argc, argv);
    try {
        std::unique_ptr<Workload> w = makeWorkload(args.workload);
        if (args.writeReference) {
            Outcome ignored;
            w->setup(args, 1, ignored);
            if (!w->writeReference())
                std::fprintf(stderr, "%s pins no reference\n",
                             args.workload.c_str());
            return 0;
        }

        Outcome out;
        if (args.trace) {
            tracedRun(args, *w, out);
        } else {
            w->setup(args, w->setupReps(), out);
            w->measure(args.seconds, out);
        }
        out.e2e("peak_rss_mb", peakRssMb(), "MB");

        printTable("end-to-end", args, out.endToEnd);
        if (args.trace)
            printTable("per-layer", args, out.perLayer);
        std::fprintf(stderr, "\nfail_ratio %.6g (%llu of %llu operations)%s\n",
                     out.attempted ? static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted)
                                   : 0.0,
                     static_cast<unsigned long long>(out.failed),
                     static_cast<unsigned long long>(out.attempted),
                     out.correct ? "" : "; OUTPUTS WRONG");
        printJson(out, args.trace ? out.perLayer : out.endToEnd);
        return out.correct ? 0 : 1;
    } catch (const rev::FatalError &e) {
        std::fprintf(stderr, "revbench: %s\n", e.what());
        return 1;
    }
}
