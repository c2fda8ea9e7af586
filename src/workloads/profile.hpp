/**
 * @file
 * Workload profiles: the knobs that shape a synthetic SPEC-2006 stand-in.
 *
 * The paper's evaluation is driven by a handful of per-benchmark
 * properties: static basic-block count (20266 for mcf .. 92218 for
 * gamess), instructions per block (5.5 .. 10.02), successors per block
 * (1.68 .. 3.339), the size and locality of the dynamically executed
 * branch working set (which determines SC hit rates), branch
 * predictability, and data-memory behaviour. Each profile encodes those
 * knobs; the generator turns a profile into a real RVX program with a
 * DAG-shaped call graph (function i only calls higher-indexed functions,
 * gated by data-dependent branches), inner loops, diamonds, computed-jump
 * switches, and loads/stores over a configurable footprint.
 */

#ifndef REV_WORKLOADS_PROFILE_HPP
#define REV_WORKLOADS_PROFILE_HPP

#include <string>
#include <vector>

#include "common/types.hpp"

namespace rev::workloads
{

/** Generation parameters for one synthetic benchmark. */
struct WorkloadProfile
{
    std::string name;
    u64 seed = 1;

    // --- static shape ------------------------------------------------------
    unsigned numFunctions = 2000;
    unsigned entryFunctions = 8; ///< power of two; targets of main's dispatch
    unsigned minConstructs = 4;  ///< constructs per function body
    unsigned maxConstructs = 8;
    unsigned straightLen = 5;    ///< instructions per straight segment

    // --- call graph ---------------------------------------------------------
    unsigned callSitesPerFn = 2;
    unsigned callSpan = 200;  ///< callee window: j in (i, i+span]
    double callProb = 0.45;   ///< fraction of call sites that are "hot"
    /**
     * Per-site gate randomness: a hot site executes with probability
     * 1-gateSpread, a cold one with probability gateSpread. Small values
     * give stable, predictable hot paths (tight dynamic working sets);
     * large values churn the executed subtree every iteration (gcc/gobmk
     * style locality loss).
     */
    double gateSpread = 0.08;
    /**
     * Functions with index >= hotReach have only cold call sites, bounding
     * the hot dynamic working set to roughly hotReach functions; deeper
     * code is still visited occasionally through cold-gate noise (the
     * churn tail that evicts SC entries). 0 = unbounded.
     */
    unsigned hotReach = 0;
    double indirectFnFrac = 0.1; ///< fraction of fns with a computed switch

    // --- dynamic behaviour ---------------------------------------------------
    double branchBias = 0.85; ///< diamond taken-probability (0.5 = coin flip)
    double loopFrac = 0.25;   ///< fraction of constructs that are loops
    unsigned loopIters = 8;   ///< inner-loop trip count

    // --- instruction mix ------------------------------------------------------
    double fpFrac = 0.05;
    double mulFrac = 0.05;
    double loadFrac = 0.18;
    double storeFrac = 0.08;

    // --- data memory -----------------------------------------------------------
    u64 dataFootprint = 4 << 20; ///< bytes, power of two
    unsigned dataStride = 64;    ///< 0 = irregular (hash-based offsets)

    /** Outer iterations of main (runs usually stop on an instr budget). */
    u32 mainIterations = 1u << 20;

    bool operator==(const WorkloadProfile &) const = default;
};

/** The 15 calibrated SPEC CPU 2006 stand-ins used in the paper's plots. */
std::vector<WorkloadProfile> spec2006Profiles();

/** Find a profile by benchmark name; fatal if unknown. */
WorkloadProfile specProfile(const std::string &name);

} // namespace rev::workloads

#endif // REV_WORKLOADS_PROFILE_HPP
