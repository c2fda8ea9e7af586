/**
 * @file
 * The four benchmark workloads: sweep, campaign, verify-fleet and
 * verify-diverse (see revbench/README.md for why each was chosen).
 */

#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench/golden.hpp"
#include "bench/sweep_runner.hpp"
#include "common/logging.hpp"
#include "redteam/campaign.hpp"
#include "tracer.hpp"
#include "verify.hpp"

namespace revbench
{

using namespace rev;

namespace
{

/** Repeat @p body while another repetition is expected to fit in
 *  @p seconds (at least once). */
template <typename F>
void
repeatFor(double seconds, F &&body)
{
    const auto t0 = Clock::now();
    for (;;) {
        const auto r0 = Clock::now();
        body();
        const double rep = secondsSince(r0);
        if (secondsSince(t0) + rep > seconds)
            return;
    }
}

/**
 * Moves the calling thread round-robin over every set of @p width CPUs
 * it may run on, one step per next(), and restores its mask on
 * destruction; threads it starts meanwhile inherit the set. On a shared
 * host one CPU can run a single-threaded task a third slower than
 * another at the same moment, and two CPUs that share a host core run a
 * two-threaded one a fifth slower than two that do not; repetitions
 * spread over every set give a median that does not depend on where the
 * process happened to run.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(std::size_t width = 1)
    {
        CPU_ZERO(&orig_);
        if (sched_getaffinity(0, sizeof(orig_), &orig_) != 0)
            return;
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &orig_))
                cpus.push_back(c);
        if (cpus.size() < width)
            return;
        // Every width-sized subset, in lexicographic order.
        std::vector<std::size_t> pick(width);
        for (std::size_t i = 0; i < width; ++i)
            pick[i] = i;
        for (;;) {
            cpu_set_t set;
            CPU_ZERO(&set);
            for (std::size_t i : pick)
                CPU_SET(cpus[i], &set);
            sets_.push_back(set);
            std::size_t k = width;
            while (k > 0 && pick[k - 1] == cpus.size() - width + k - 1)
                --k;
            if (k == 0)
                break;
            ++pick[k - 1];
            for (std::size_t j = k; j < width; ++j)
                pick[j] = pick[j - 1] + 1;
        }
    }

    ~CpuRotation()
    {
        if (!sets_.empty())
            sched_setaffinity(0, sizeof(orig_), &orig_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (!sets_.empty())
            sched_setaffinity(0, sizeof(cpu_set_t),
                              &sets_[step_++ % sets_.size()]);
    }

  private:
    cpu_set_t orig_;
    std::vector<cpu_set_t> sets_;
    std::size_t step_ = 0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------------------
// sweep: the paper's experiment, 15 stand-ins x 6 configs
// ---------------------------------------------------------------------------

constexpr u64 kSweepBudget = 200'000;
constexpr unsigned kSweepThreads = 2;
constexpr const char *kQuickGolden = "tests/bench/golden_quick_sweep.txt";

class SweepWorkload final : public Workload
{
  public:
    void
    setup(const RunArgs &args, unsigned, Outcome &) override
    {
        // Program generation and the signature-table builds run inside
        // SweepRunner::run(); measure() reports them as setup_s.
        args_ = args;
    }

    void
    measure(double seconds, Outcome &out) override
    {
        const bench::SweepOptions opts = options();
        const std::string reference = args_.dataDir + "/sweep_reference.txt";
        std::vector<double> runS, setupS, mips, jobMs;
        CpuRotation cpus(kSweepThreads);
        repeatFor(seconds, [&] {
            cpus.next();
            bench::SweepRunner runner(opts);
            const double start = trace::now();
            const auto t0 = Clock::now();
            bench::Sweep sweep;
            u32 span = 0;
            {
                trace::Scope s("bench.sweep_run");
                span = s.id();
                sweep = runner.run();
            }
            runS.push_back(secondsSince(t0));
            recordPhaseSpans(runner.phaseTimings(), start, span);

            const bench::SweepPhaseTimings &ph = runner.phaseTimings();
            setupS.push_back(ph.generateSeconds + ph.protoSeconds);
            u64 instrs = 0;
            for (const auto &[key, run] : sweep.runs)
                instrs += run.instrs;
            mips.push_back(static_cast<double>(instrs) /
                           (ph.recordSeconds + ph.replaySeconds));
            for (const bench::JobTiming &t : runner.timings())
                jobMs.push_back(t.wallSeconds * 1e3);
            check(sweep, opts, reference, out);
        });

        // The repository's own pin of the quick sweep, outside the timing.
        bench::SweepOptions quick = bench::SweepOptions::quick();
        quick.threads = kSweepThreads;
        quick.progress = false;
        check(bench::SweepRunner(quick).run(), quick, kQuickGolden, out);

        out.e2e("setup_s", median(setupS), "s");
        out.e2e("run_s", median(runS), "s");
        out.e2e("ops_per_s", median(mips), "op/s");
        out.e2e("p50_ms", median(jobMs), "ms");
        out.e2e("p99_ms", tailQuantile(jobMs), "ms");
    }

    std::vector<workloads::WorkloadProfile>
    programs() const override
    {
        return workloads::spec2006Profiles();
    }

    /** Pin the simulated statistics of the sweep as they are now. */
    bool
    writeReference() const override
    {
        bench::SweepOptions opts = options();
        opts.useCache = true;
        opts.cachePath = args_.dataDir + "/sweep_reference.txt";
        std::filesystem::remove(opts.cachePath);
        bench::SweepRunner(opts).run();
        std::fprintf(stderr, "wrote %s\n", opts.cachePath.c_str());
        return true;
    }

  private:
    static bench::SweepOptions
    options()
    {
        bench::SweepOptions o;
        o.instrBudget = kSweepBudget;
        o.threads = kSweepThreads;
        o.useCache = false;
        o.progress = false;
        return o;
    }

    /** Every job's simulated statistics must equal the pinned ones. */
    static void
    check(const bench::Sweep &sweep, const bench::SweepOptions &opts,
          const std::string &golden, Outcome &out)
    {
        const auto diffs = bench::compareToGolden(sweep, opts, golden);
        out.count(sweep.runs.size(), std::min(diffs.size(), sweep.runs.size()));
        if (!diffs.empty())
            out.fail(golden + ": " + diffs.front().bench + " " +
                     bench::configName(diffs.front().config) + ":" +
                     diffs.front().detail);
    }

    /** SweepRunner's phases run back to back; lay them out as children
     *  of the run span. */
    static void
    recordPhaseSpans(const bench::SweepPhaseTimings &ph, double start,
                     u32 parent)
    {
        const std::pair<const char *, double> phases[] = {
            {"workloads.generate", ph.generateSeconds},
            {"sig.proto_build", ph.protoSeconds},
            {"core.image_load", ph.imageSeconds},
            {"core.record_jobs", ph.recordSeconds},
            {"core.replay_jobs", ph.replaySeconds},
        };
        double t = start;
        for (const auto &[name, secs] : phases) {
            trace::record(name, t, t + secs, parent);
            t += secs;
        }
    }

    RunArgs args_;
};

// ---------------------------------------------------------------------------
// campaign: the 2k-injection red-team campaign from warmed snapshots
// ---------------------------------------------------------------------------

constexpr u64 kCampaignDefaultSeed = 1;
constexpr u64 kCampaignInjections = 2000;
constexpr u64 kCampaignBudget = 20'000;
/** Round r adjudicates plans r, r + kPlanShares, ... singly. Coprime to
 *  the 6 classes x 3 modes x 2 timings x 3 programs the plans cycle
 *  through, so every share holds each of those cells alike. */
constexpr std::size_t kPlanShares = 5;

class CampaignWorkload final : public Workload
{
  public:
    explicit CampaignWorkload(unsigned threads) : threads_(threads) {}

    /** Construction takes ~0.1 s and runs on one thread: take the
     *  median of more of them, spread over the CPUs. */
    unsigned setupReps() const override { return 12; }

    void
    setup(const RunArgs &args, unsigned reps, Outcome &out) override
    {
        args_ = args;
        redteam::CampaignSpec spec;
        spec.seed = args.seed;
        spec.injections = kCampaignInjections;
        spec.instrBudget = kCampaignBudget;
        spec.threads = threads_;
        std::vector<double> secs;
        CpuRotation cpus;
        for (unsigned r = 0; r < reps; ++r) {
            campaign_.reset();
            cpus.next();
            const auto t0 = Clock::now();
            trace::Scope span("redteam.campaign_build");
            campaign_ = std::make_unique<redteam::Campaign>(spec);
            secs.push_back(secondsSince(t0));
        }
        out.e2e("setup_s", median(secs), "s");
    }

    void
    measure(double seconds, Outcome &out) override
    {
        // Rounds of one whole campaign run and one share of its plans
        // adjudicated singly (corpus replay / triage), one CPU per
        // round, so both sample the whole run.
        const std::vector<redteam::InjectionPlan> plans =
            campaign_->generatePlans();
        std::vector<double> runS, planMs;
        std::string first;
        u64 injections = 0;
        double runTotal = 0;
        std::size_t round = 0;
        CpuRotation cpus;
        repeatFor(seconds, [&] {
            cpus.next();
            const auto t0 = Clock::now();
            redteam::DetectionMatrix m;
            {
                trace::Scope span("redteam.campaign_run");
                m = campaign_->run(true);
            }
            runS.push_back(secondsSince(t0));
            runTotal += runS.back();
            injections += m.injections;
            const std::string json = redteam::matrixToJson(m);
            bool ok = check(m, json, first, out);
            if (first.empty()) {
                first = json;
                reportRedteamLayer(m, out);
            }
            out.count(m.injections, ok ? 0 : m.injections);

            for (std::size_t i = round++ % kPlanShares; i < plans.size();
                 i += kPlanShares) {
                const auto p0 = Clock::now();
                trace::Scope span("redteam.run_plan");
                (void)campaign_->runPlan(plans[i]);
                planMs.push_back(secondsSince(p0) * 1e3);
            }
        });
        out.count(planMs.size(), 0);

        out.e2e("run_s", median(runS), "s");
        out.e2e("ops_per_s", static_cast<double>(injections) / runTotal,
                "op/s");
        out.e2e("p50_ms", median(planMs), "ms");
        out.e2e("p99_ms", tailQuantile(planMs), "ms");
    }

    std::vector<workloads::WorkloadProfile>
    programs() const override
    {
        return redteam::campaignWorkloads();
    }

    bool ownsRedteam() const override { return true; }

    bool
    writeReference() const override
    {
        if (args_.seed != kCampaignDefaultSeed)
            fatal("campaign: the reference is pinned at seed ",
                  kCampaignDefaultSeed);
        const std::string path = referencePath();
        std::ofstream os(path);
        os << redteam::matrixToJson(campaign_->run(true)) << "\n";
        std::fprintf(stderr, "wrote %s\n", path.c_str());
        return true;
    }

  private:
    std::string
    referencePath() const
    {
        return args_.dataDir + "/campaign_seed" +
               std::to_string(kCampaignDefaultSeed) + ".json";
    }

    /** Matrix checks: every cell covered, every repetition identical,
     *  and identical to the pinned matrix at the default seed. */
    bool
    check(const redteam::DetectionMatrix &m, const std::string &json,
          const std::string &first, Outcome &out) const
    {
        bool ok = true;
        if (!m.coversAllCells()) {
            out.fail("campaign: a (class, mode) cell got no injections");
            ok = false;
        }
        if (!first.empty() && json != first) {
            out.fail("campaign: matrix differs between repetitions");
            ok = false;
        }
        if (args_.seed == kCampaignDefaultSeed) {
            const std::string want = readFile(referencePath());
            if (want != json + "\n") {
                out.fail("campaign: matrix differs from " + referencePath());
                ok = false;
            }
        }
        if (m.total.escapes != 0) {
            // Escapes are the campaign's finding, pinned per seed by the
            // reference at the default seed; elsewhere they are reported.
            for (const redteam::EscapeRecord &e : m.escapes)
                std::fprintf(stderr, "campaign: escape fp=0x%llx: %s\n",
                             static_cast<unsigned long long>(e.fingerprint),
                             redteam::planToJson(e.plan).c_str());
        }
        return ok;
    }

    unsigned threads_;
    RunArgs args_;
    std::unique_ptr<redteam::Campaign> campaign_;
};

// ---------------------------------------------------------------------------
// verify-fleet / verify-diverse: the attestation service under open-loop
// load, on a corpus that fits its dedup cache and on one that does not
// ---------------------------------------------------------------------------

constexpr u64 kStreamBudget = 100'000;
/** Share of each service instance's time spent in the open loop. */
constexpr double kOpenShare = 0.65;
/** Independent service instances per run. */
constexpr unsigned kServiceInstances = 4;

struct VerifyShape
{
    std::vector<std::string> benches;
    double rate;          ///< open-loop sessions per second
    unsigned outstanding; ///< closed-loop sessions in flight
    unsigned batch;       ///< closed-loop sessions per timed batch
};

const VerifyShape kFleet{{"bzip2", "mcf"}, 150, 8, 128};
const VerifyShape kDiverse{{"mcf", "sjeng", "gobmk", "gcc", "dealII", "hmmer",
                            "h264ref", "bzip2"},
                           45,
                           8,
                           32};

class VerifyWorkload final : public Workload
{
  public:
    explicit VerifyWorkload(const VerifyShape &shape) : shape_(shape) {}

    void
    setup(const RunArgs &args, unsigned reps, Outcome &out) override
    {
        args_ = args;
        std::vector<double> secs;
        for (unsigned r = 0; r < reps; ++r) {
            corpus_.reset();
            const auto t0 = Clock::now();
            trace::Scope span("bench.corpus_build");
            corpus_ = std::make_unique<Corpus>(buildCorpus(
                programs(),
                {validate::Backend::Rev, validate::Backend::LoFat},
                kStreamBudget));
            secs.push_back(secondsSince(t0));
        }
        out.e2e("setup_s", median(secs), "s");
    }

    void
    measure(double seconds, Outcome &out) override
    {
        // Several short-lived services, medians across them: a host
        // hiccup or an unlucky thread placement moves one instance only.
        std::vector<double> p50s, tails, rates, batches;
        LoadResult all;
        for (unsigned k = 0; k < kServiceInstances; ++k) {
            LoadOptions o;
            o.seed = args_.seed * kServiceInstances + k;
            o.rate = shape_.rate;
            o.openSeconds = seconds / kServiceInstances * kOpenShare;
            o.closedSeconds = seconds / kServiceInstances * (1 - kOpenShare);
            o.outstanding = shape_.outstanding;
            o.batch = shape_.batch;
            const LoadResult r = runLoad(*corpus_, o);
            out.count(r.sessions, r.failed);
            if (r.failed)
                out.fail("verifier: " + std::to_string(r.failed) +
                         " sessions failed; first: " + r.firstFailure);
            p50s.push_back(median(r.latencyMs));
            tails.push_back(tailQuantile(r.latencyMs));
            rates.push_back(static_cast<double>(r.closedSessions) /
                            r.closedSeconds);
            batches.insert(batches.end(), r.batchSeconds.begin(),
                           r.batchSeconds.end());
            append(all, r);
        }
        out.e2e("run_s", median(batches), "s");
        out.e2e("ops_per_s", median(rates), "op/s");
        out.e2e("p50_ms", median(p50s), "ms");
        out.e2e("p99_ms", median(tails), "ms");
        reportVerifierLayer(all, out);
    }

    std::vector<workloads::WorkloadProfile>
    programs() const override
    {
        std::vector<workloads::WorkloadProfile> out;
        for (const std::string &b : shape_.benches)
            out.push_back(workloads::specProfile(b));
        return out;
    }

    const Corpus *corpus() const override { return corpus_.get(); }
    bool ownsVerifier() const override { return true; }

  private:
    VerifyShape shape_;
    RunArgs args_;
    std::unique_ptr<Corpus> corpus_;
};

} // namespace

std::unique_ptr<Workload>
makeSweepWorkload()
{
    return std::make_unique<SweepWorkload>();
}

std::unique_ptr<Workload>
makeCampaignWorkload(unsigned threads)
{
    return std::make_unique<CampaignWorkload>(threads);
}

std::unique_ptr<Workload>
makeVerifyWorkload(bool diverse)
{
    return std::make_unique<VerifyWorkload>(diverse ? kDiverse : kFleet);
}

} // namespace revbench
