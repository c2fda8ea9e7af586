/**
 * @file
 * Verifier-side machinery shared by the verify-* workloads and the
 * layer pass: the recorded stream corpus and the seeded open-loop /
 * closed-loop session driver over one VerifierService.
 */

#ifndef REVBENCH_VERIFY_HPP
#define REVBENCH_VERIFY_HPP

#include <memory>
#include <string>
#include <vector>

#include "crypto/keyvault.hpp"
#include "harness.hpp"
#include "sig/sigstore.hpp"
#include "validate/refstore.hpp"
#include "validate/stream_verifier.hpp"
#include "verifier/ring.hpp"
#include "verifier/unit_cache.hpp"

namespace revbench
{

/** The verifier's reference material for one program. */
struct ProgramRefs
{
    rev::prog::Program program;
    std::unique_ptr<rev::crypto::KeyVault> vault;
    std::unique_ptr<rev::sig::SigStore> store;
    std::unique_ptr<rev::validate::RefStore> refs;
};

/** One recorded measurement stream plus the inline golden verdict the
 *  in-core backend rendered for the same run. */
struct StreamCase
{
    std::string bench;
    rev::validate::Backend backend = rev::validate::Backend::Rev;
    const rev::validate::RefStore *refs = nullptr;
    std::vector<rev::u8> stream;

    bool detected = false;
    std::string reason;
    u64 bbValidated = 0;
    u64 violations = 0;
    u64 chainUpdates = 0;
    u64 bufferSpills = 0;
    u64 spillBytes = 0;
    u64 unattestedBlocks = 0;
    u64 edgeViolations = 0;
};

struct Corpus
{
    std::vector<std::unique_ptr<ProgramRefs>> programs;
    std::vector<StreamCase> cases;
};

/**
 * Record one stream per (program, backend): generate each program,
 * build its signature store and RefStore, record the architectural
 * trace once and capture every backend's measurement stream from it.
 */
Corpus buildCorpus(const std::vector<rev::workloads::WorkloadProfile> &profs,
                   const std::vector<rev::validate::Backend> &backends,
                   u64 instrBudget);

/** Empty when @p v equals @p c's inline golden, else what differs. */
std::string divergence(const StreamCase &c,
                       const rev::validate::StreamVerdict &v);

/** How to drive one VerifierService. */
struct LoadOptions
{
    u64 seed = 1;
    unsigned workers = 2;
    std::size_t ringBytes = rev::verifier::kDefaultRingBytes;
    std::size_t dedupEntries = 1u << 16;

    double rate = 100;       ///< open-loop arrivals per second
    double openSeconds = 1;  ///< open-loop schedule length
    unsigned outstanding = 8; ///< closed-loop sessions in flight
    double closedSeconds = 1; ///< closed-loop phase length
    unsigned batch = 64;     ///< closed-loop sessions per timed batch
};

/** What one load run measured. Times in milliseconds unless noted. */
struct LoadResult
{
    u64 sessions = 0; ///< every session opened (warm-up included)
    u64 failed = 0;   ///< diverged from the golden, or never adjudicated
    std::string firstFailure;

    // Open loop, one entry per session (failed sessions: infinity).
    std::vector<double> latencyMs;      ///< due -> verdict
    std::vector<double> dueToCloseMs;   ///< due -> prover close
    std::vector<double> closeToVerdictMs;
    std::vector<double> generatorLagMs; ///< due -> actually opened

    // Closed loop.
    u64 closedSessions = 0;
    double closedSeconds = 0;
    std::vector<double> batchSeconds;

    // Prover side.
    u64 offers = 0;
    u64 retries = 0; ///< offers the transport did not take whole
    double offerSeconds = 0;

    // Shared-cache counters over the measured phases.
    rev::verifier::UnitCacheStats cache;
};

/**
 * Warm the service with one session per corpus case, then run the
 * seeded open-loop schedule (Poisson arrivals at opts.rate), then the
 * closed-loop phase. Sessions replay the cases in rounds: every case
 * once per round, each round in a seeded random order. Every
 * session's verdict is checked against its case's inline golden.
 */
LoadResult runLoad(const Corpus &corpus, const LoadOptions &opts);

/** Pool @p r's samples and counters into @p into. */
void append(LoadResult &into, const LoadResult &r);

/** Verifier per-layer metrics of @p r into @p out. */
void reportVerifierLayer(const LoadResult &r, Outcome &out);

} // namespace revbench

#endif // REVBENCH_VERIFY_HPP
