/**
 * @file
 * Shared vocabulary of the repository benchmark: run arguments, the
 * per-run outcome (correctness counts plus end-to-end and per-layer
 * metrics), the workload interface and small statistics helpers.
 */

#ifndef REVBENCH_HARNESS_HPP
#define REVBENCH_HARNESS_HPP

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "workloads/profile.hpp"

namespace rev::redteam
{
struct DetectionMatrix;
}

namespace revbench
{

using rev::u64;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The benchmark's command line, after parsing. */
struct RunArgs
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string dataDir = "revbench/data"; ///< pinned references
    std::string traceOut;                  ///< span file (traced runs)
    bool writeReference = false; ///< refresh the pinned reference
};

/** One reported number. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** Everything one run measured and checked. */
struct Outcome
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;

    /** A correctness check failed: the run's outputs are wrong. */
    void fail(const std::string &why);

    /** Count @p attempts operations of which @p failures failed. */
    void
    count(u64 attempts, u64 failures)
    {
        attempted += attempts;
        failed += failures;
    }

    void
    e2e(const std::string &name, double value, const char *unit)
    {
        endToEnd[name] = {value, unit};
    }
    void
    layer(const std::string &name, double value, const char *unit)
    {
        perLayer[name] = {value, unit};
    }
};

/**
 * Stream cases the verifier probes replay (recorded measurement
 * streams with their inline goldens); defined in verify.hpp.
 */
struct Corpus;

/**
 * One benchmark workload. setup() builds the inputs (timed as
 * setup_s), measure() runs the timed part for about @p seconds and
 * records end-to-end metrics plus the per-layer numbers the workload's
 * own path yields; the layer pass (layers.cpp) fills in the rest.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs @p reps times; record setup_s as the median. */
    virtual void setup(const RunArgs &args, unsigned reps, Outcome &out) = 0;

    /** Set-up repetitions of an untraced run. */
    virtual unsigned setupReps() const { return 3; }

    /** The timed part; end-to-end metrics into @p out. */
    virtual void measure(double seconds, Outcome &out) = 0;

    /** Workload profiles whose programs the layer pass exercises. */
    virtual std::vector<rev::workloads::WorkloadProfile> programs() const = 0;

    /** Recorded stream corpus, if the workload builds one. */
    virtual const Corpus *corpus() const { return nullptr; }

    /** Does measure() itself yield the redteam / verifier layer
     *  metrics? (Otherwise the layer pass probes those layers.) */
    virtual bool ownsRedteam() const { return false; }
    virtual bool ownsVerifier() const { return false; }

    /** Re-pin the workload's reference outputs from the current code
     *  (after setup()); false when the workload has none. */
    virtual bool writeReference() const { return false; }
};

std::unique_ptr<Workload> makeSweepWorkload();
std::unique_ptr<Workload> makeCampaignWorkload(unsigned threads);
std::unique_ptr<Workload> makeVerifyWorkload(bool diverse);

/** Per-layer metrics of every layer the workload left unmeasured. */
void runLayerPass(const RunArgs &args, Workload &w, Outcome &out);

/** The campaign's verdict counts as redteam.* per-layer metrics. */
void reportRedteamLayer(const rev::redteam::DetectionMatrix &m, Outcome &out);

/** Value at quantile @p q (0..1) of @p v, nearest rank; 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * The highest percentile, at most the 99th, that leaves at least ten
 * samples beyond it (the tail a sample of this size supports). Stores
 * the percentile used in @p pct when given.
 */
double tailQuantile(std::vector<double> v, double *pct = nullptr);

/** Peak resident set of this process, MiB. */
double peakRssMb();

} // namespace revbench

#endif // REVBENCH_HARNESS_HPP
