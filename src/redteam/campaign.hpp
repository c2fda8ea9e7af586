/**
 * @file
 * The adversarial campaign engine.
 *
 * A Campaign expands a CampaignSpec into thousands of seeded
 * InjectionPlans stratified over the full sweep matrix — injection class
 * x workload x validation mode x timing variant — runs each against the
 * differential oracle on a shared worker pool, and aggregates the
 * verdicts into a DetectionMatrix keyed by (class, mode).
 *
 * Golden runs reuse the sweep's record-once/replay-many fast path: one
 * direct record run per workload produces the architectural trace, and
 * every other (mode, timing) golden replays it (REV_TRACE_REPLAY
 * permitting). Tampered runs always execute directly — the tamper
 * changes the architectural stream, which is the point — so detection
 * matrices are bit-identical with replay on and off.
 *
 * Injected runs themselves reuse state the same way: instead of paying
 * the warm-up prefix (instruction 0 .. fireIndex) per injection, the
 * campaign keeps one *source* simulator per (workload, mode, timing)
 * configuration, advances it monotonically through the group's plans in
 * fireIndex order, captures a copy-on-write Snapshot at each distinct
 * fire point, and forks every injection from it (run(false) runs every
 * plan cold instead). A fork's instruction/cycle/statistics stream is
 * bit-identical to a cold run's from the snapshot index on
 * (tests/bench/snapshot_test.cpp), so the rendered matrix is
 * byte-identical either way — enforced in CI.
 */

#ifndef REV_REDTEAM_CAMPAIGN_HPP
#define REV_REDTEAM_CAMPAIGN_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "redteam/oracle.hpp"

namespace rev::redteam
{

/** The built-in campaign workloads (small, distinct dynamic shapes). */
std::vector<workloads::WorkloadProfile> campaignWorkloads();

/** The built-in timing variants (SC capacity sweep). */
std::vector<TimingVariant> campaignTimings();

/** Every validation mode, in canonical order. */
std::vector<sig::ValidationMode> campaignModes();

/** Per-(class, mode) verdict counts of a campaign. */
struct CellStats
{
    u64 injections = 0;
    u64 detected = 0;
    u64 crashed = 0;
    u64 benign = 0;
    u64 blind = 0;
    u64 escapes = 0;
    u64 unfired = 0;      ///< plans whose firing condition never triggered
    u64 offMechanism = 0; ///< detections outside the predicted mechanisms
    u64 latencySum = 0;   ///< detection-latency cycles, over detected

    void
    add(const CellStats &o)
    {
        injections += o.injections;
        detected += o.detected;
        crashed += o.crashed;
        benign += o.benign;
        blind += o.blind;
        escapes += o.escapes;
        unfired += o.unfired;
        offMechanism += o.offMechanism;
        latencySum += o.latencySum;
    }
};

/** One escape, with everything needed to reproduce it. */
struct EscapeRecord
{
    InjectionPlan plan;
    InjectionResult result;
    u64 fingerprint = 0; ///< planFingerprint(plan): the reproducer seed
};

/** Aggregated campaign outcome. */
struct DetectionMatrix
{
    u64 seed = 0;
    u64 injections = 0;
    bool revEnabled = true;
    validate::Backend backend = validate::Backend::Rev;

    /** (class name, mode name) -> verdict counts; every swept cell is
     *  present, including empty ones. */
    std::map<std::pair<std::string, std::string>, CellStats> cells;
    CellStats total;
    std::vector<EscapeRecord> escapes;

    /** Off-mechanism detections: the tamper was caught, but not by a
     *  mechanism the taxonomy predicts for its class. Near-misses, kept
     *  with full reproducer plans so the corpus can persist them. */
    std::vector<EscapeRecord> nearMisses;

    /** Did every swept (class, mode) cell receive >= 1 injection? */
    bool coversAllCells() const;
};

/** Deterministic JSON rendering (cells in class-major order). */
std::string matrixToJson(const DetectionMatrix &m);

/**
 * One configured campaign: owns the workload contexts (programs,
 * signature-store prototypes, traces, goldens) so plans can be run —
 * individually (shrinker, tests) or en masse (run()).
 */
class Campaign
{
  public:
    /** Builds every workload context and golden run. Expensive; do it
     *  once and reuse across run()/runPlan() calls. */
    explicit Campaign(const CampaignSpec &spec);
    ~Campaign();

    Campaign(const Campaign &) = delete;
    Campaign &operator=(const Campaign &) = delete;

    /** Expand the spec into its stratified plan list. Deterministic in
     *  the spec alone. */
    std::vector<InjectionPlan> generatePlans() const;

    /** Run one plan through the oracle. Thread-safe. */
    InjectionResult runPlan(const InjectionPlan &plan) const;

    /** Can runPlan() execute @p plan — does this campaign hold its
     *  workload context and timing variant? (Corpus plans may come from
     *  campaigns swept over different axes.) */
    bool canRun(const InjectionPlan &plan) const;

    /** Run the whole campaign across the worker pool; @p use_snapshots
     *  selects between snapshot-forked injections (fork the warmed
     *  source at each plan's fire index) and cold per-plan runs. Both
     *  render byte-identical matrices. */
    DetectionMatrix run(bool use_snapshots = true) const;

    const CampaignSpec &spec() const { return spec_; }
    const std::vector<TimingVariant> &timings() const { return timings_; }
    const std::vector<sig::ValidationMode> &modes() const { return modes_; }
    const std::vector<InjectionClass> &classes() const { return classes_; }
    const WorkloadContext &context(const std::string &workload) const;

  private:
    CampaignSpec spec_;
    unsigned threads_;
    std::vector<TimingVariant> timings_;
    std::vector<sig::ValidationMode> modes_;
    std::vector<InjectionClass> classes_;
    std::vector<std::unique_ptr<WorkloadContext>> contexts_;
};

} // namespace rev::redteam

#endif // REV_REDTEAM_CAMPAIGN_HPP
