/**
 * @file
 * The experiment runner: executes a list of jobs on one worker pool.
 *
 * A job is a program (a workload profile, seed included) plus a complete
 * core::SimConfig, optionally measured in steady state (warm up one
 * quantum, resetStats(), measure). Jobs are mutually independent, so the
 * runner fans them out over a worker pool (common/parallel.hpp) and
 * writes each result into its job's slot — never by completion order,
 * so any thread count produces identical results. The paper sweep
 * (benchmarks x kAllConfigs) is one such job list; bench/figures.cpp
 * appends the steady-state Fig. 7 and the ablation lists to it.
 *
 * Whatever the jobs share is built once, keyed by its build inputs:
 *  - one program per distinct profile;
 *  - one signature-table prototype per (program, seeds, split limits,
 *    hash rounds, mode), and one warmed memory image per prototype (plus
 *    the bare program image for jobs without validation), which every
 *    job COW-forks through SimConfig::memoryImage.
 *
 * Execute once, time many: the committed instruction stream of a
 * (program, budget, split limits) group is identical for every timing
 * config (the core is execute-functional, timing-directed), so the first
 * with-validation job of each group records an architectural trace
 * (program/trace.hpp) and the group's other one-shot jobs replay it.
 * Steady-state and multicore jobs run direct. Non-replayable recordings
 * (self-modifying code, violations) and jobs whose trace fails
 * attachment validation silently run direct; REV_TRACE_REPLAY=0
 * disables the whole mechanism.
 */

#ifndef REV_BENCH_SWEEP_RUNNER_HPP
#define REV_BENCH_SWEEP_RUNNER_HPP

#include <vector>

#include "bench/suite.hpp"
#include "workloads/profile.hpp"

namespace rev::bench
{

/** One simulation of an experiment. */
struct Job
{
    workloads::WorkloadProfile program; ///< built once per profile
                                        ///< (workloads::buildProgram)
    core::SimConfig cfg; ///< complete; the runner owns its harness pointers

    /**
     * 0: one run() of cfg.core.maxInstrs instructions. Otherwise a
     * steady-state measurement: one run() quantum of cfg.core.maxInstrs
     * warms every structure, resetStats(), then run() quanta until at
     * least this many instructions are measured.
     */
    u64 measureInstrs = 0;

    std::string tag; ///< progress-line label
};

/** What one job measured. */
struct JobResult
{
    /** Core counters sum over the measured quanta; validator and
     *  memory-system counters are cumulative since resetStats(). */
    RunNumbers run;
    u64 shadowSpills = 0;
    u64 shadowRefills = 0;
    u64 sigTableBytes = 0;
    u64 xcoreScFillWaitCycles = 0; ///< SC fills queued behind other cores,
                                   ///< summed over cores
    StaticNumbers statics; ///< of the job's program; table bytes unset
    double tableBuildSeconds = 0; ///< host time of the job's table build
    double wallSeconds = 0;
    bool replayed = false; ///< timed against a recorded trace
};

/** Wall-time accounting for one (benchmark, config) job of the sweep. */
struct JobTiming
{
    std::string bench;
    Config config = Config::Base;
    double wallSeconds = 0;
    bool replayed = false; ///< timed against a recorded trace
};

/** Host wall-clock per phase of the last run(); the closing progress
 *  line prints it. */
struct SweepPhaseTimings
{
    double generateSeconds = 0; ///< workload generation
    double protoSeconds = 0;    ///< signature-table prototype builds + statics
    double imageSeconds = 0;    ///< shared warmed memory-image loads
    double recordSeconds = 0;   ///< trace-recording and steady-state jobs
    double replaySeconds = 0;   ///< remaining simulations (replayed or direct)
};

class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts);

    /**
     * Execute the sweep, and @p extra on the same pool. Results of
     * @p extra land in @p extraResults in job order. Callable once per
     * runner.
     */
    Sweep run(const std::vector<Job> &extra = {},
              std::vector<JobResult> *extraResults = nullptr);

    /** Per-job wall times of the last run()'s sweep jobs, in job order. */
    const std::vector<JobTiming> &timings() const { return timings_; }

    /** Host seconds per phase of the last run(). */
    const SweepPhaseTimings &phaseTimings() const { return phases_; }

    /** Worker threads the fan-out actually used. */
    unsigned threadsUsed() const { return threadsUsed_; }

  private:
    /** Execute @p jobs; results in job order. */
    std::vector<JobResult> runJobs(const std::vector<Job> &jobs);

    SweepOptions opts_;
    std::vector<JobTiming> timings_;
    SweepPhaseTimings phases_;
    unsigned threadsUsed_ = 1;
};

} // namespace rev::bench

#endif // REV_BENCH_SWEEP_RUNNER_HPP
