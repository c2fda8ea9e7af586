/**
 * @file
 * The parallel sweep execution engine.
 *
 * A sweep is a fixed job matrix: |benchmarks| x |kAllConfigs| mutually
 * independent simulations. SweepRunner materializes the matrix up front,
 * fans the jobs out over a worker pool (common/parallel.hpp), and
 * assembles the Sweep from per-job result slots — keyed by job index,
 * never by completion order, so any thread count produces the identical
 * Sweep.
 *
 * Execute once, time many: the committed instruction stream of a
 * benchmark is identical for every timing config (the core is
 * execute-functional, timing-directed), so per benchmark the first REV
 * job records an architectural trace (program/trace.hpp) and the
 * remaining configs replay it instead of re-executing semantics.
 * Non-replayable recordings (self-modifying code, violations) and jobs
 * whose trace fails attachment validation silently run direct; setting
 * REV_TRACE_REPLAY=0 disables the whole mechanism. Traces larger than
 * REV_TRACE_SPILL_MB (default 64) are spilled to a temp file between the
 * record and replay phases instead of held in memory.
 *
 * Load once, fork many: each benchmark's memory image (program bytes,
 * plus the loaded signature tables per validation mode) is deposited
 * into one shared SparseMemory and every job COW-forks it through
 * SimConfig::memoryImage — O(pages touched) per job instead of
 * re-loading the full footprint.
 */

#ifndef REV_BENCH_SWEEP_RUNNER_HPP
#define REV_BENCH_SWEEP_RUNNER_HPP

#include <vector>

#include "bench/suite.hpp"

namespace rev::bench
{

/** Wall-time accounting for one (benchmark, config) job. */
struct JobTiming
{
    std::string bench;
    Config config = Config::Base;
    double wallSeconds = 0;
    bool replayed = false; ///< timed against a recorded trace
};

/** Host wall-clock per phase of the last run() (simperf breakdown). */
struct SweepPhaseTimings
{
    double generateSeconds = 0; ///< workload generation
    double protoSeconds = 0;    ///< signature-table prototype builds + statics
    double imageSeconds = 0;    ///< shared warmed memory-image loads
    double recordSeconds = 0;   ///< trace-recording simulations
    double replaySeconds = 0;   ///< remaining simulations (replayed or direct)
};

class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts);

    /** Execute the sweep. Callable once per runner. */
    Sweep run();

    /** Per-job wall times of the last run(), in job order. */
    const std::vector<JobTiming> &timings() const { return timings_; }

    /** Host seconds per phase of the last run(). */
    const SweepPhaseTimings &phaseTimings() const { return phases_; }

    /** Worker threads the fan-out actually used. */
    unsigned threadsUsed() const { return threadsUsed_; }

  private:
    SweepOptions opts_;
    std::vector<JobTiming> timings_;
    SweepPhaseTimings phases_;
    unsigned threadsUsed_ = 1;
};

} // namespace rev::bench

#endif // REV_BENCH_SWEEP_RUNNER_HPP
