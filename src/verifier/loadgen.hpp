/**
 * @file
 * Verifier load generator: N concurrent prover sessions against one
 * VerifierService, with a built-in divergence oracle.
 *
 * The generator builds a small corpus of measurement streams — one per
 * (workload, backend) pair — by running the real Simulator with a
 * StreamWriter attached as the prover-side measurement sink, honoring
 * the REV_TRACE_REPLAY execute-once/time-many switch (the architectural
 * stream of a replayed run is identical to a direct run's, so the
 * measurement session is too). Each corpus entry also captures the
 * *inline golden*: the verdict and counters the in-core backend itself
 * rendered for that run.
 *
 * It then runs N sessions (round-robin over the corpus) on one
 * VerifierService over the selected transport — in-memory rings or
 * Unix-domain socketpairs — from a pool of prover threads that
 * interleave chunked writes across their live sessions. Sessions open
 * *lazily* inside a sliding window (default: the whole population at
 * once; the 100k soak caps the window so live transport memory stays
 * bounded), drain the service, and compare every session's
 * StreamVerdict against its inline golden: Detected / Benign, the
 * violation-reason string, and the architectural counters must all be
 * bit-identical. Any deviation is a divergence — the CI gate fails on
 * a nonzero count.
 *
 * The report also carries a *canonical verdict stream*: one line per
 * session (case identity + full verdict + counters), sorted. Because
 * session->case assignment depends only on claim order, the sorted
 * stream is invariant across transports, worker counts, and dedup
 * settings — CI `cmp`s the memory-transport stream against the socket
 * one byte for byte.
 *
 * Reported throughput numbers: verified sessions per second, p50/p99
 * close-to-verdict session latency, mean stream bytes per session, and
 * the shared-cache dedup hit rate.
 */

#ifndef REV_VERIFIER_LOADGEN_HPP
#define REV_VERIFIER_LOADGEN_HPP

#include <string>
#include <vector>

#include "validate/validator.hpp"
#include "verifier/service.hpp"

namespace rev::verifier
{

/** Load-generator knobs. */
struct LoadGenOptions
{
    /** Workload names (workloads::specProfile); empty = {bzip2, mcf}. */
    std::vector<std::string> benchmarks;

    /** Backends to build corpus streams for. */
    std::vector<validate::Backend> backends = {validate::Backend::Rev,
                                               validate::Backend::LoFat};

    u64 instrBudget = 100000; ///< per-stream recorded run length
    unsigned sessions = 1000; ///< total prover sessions
    unsigned workers = 2;     ///< verifier worker threads
    unsigned provers = 2;     ///< prover (producer) threads
    std::size_t chunkBytes = 1024; ///< prover write granularity
    std::size_t ringBytes = kDefaultRingBytes;

    TransportKind transport = TransportKind::Memory;

    /** Shared verified-unit cache entries; 0 disables dedup. */
    std::size_t dedupEntries = 1u << 16;

    /** Sessions live at once (across all provers); 0 = everything.
     *  The soak preset uses a bounded window so 100k sessions never
     *  hold 100k transports. */
    unsigned window = 0;
};

/** One corpus entry: a recorded stream plus its inline golden. */
struct StreamCase
{
    std::string bench;
    validate::Backend backend = validate::Backend::Rev;
    bool replayed = false; ///< the capture run replayed a recorded trace

    std::vector<u8> stream; ///< the serialized measurement session

    // Inline golden: what the in-core backend rendered for this run.
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

/** One session whose verdict deviated from its inline golden. */
struct Divergence
{
    u64 session = 0;
    std::size_t caseIdx = 0;
    std::string detail;
};

/** Everything one load-generator run produced. */
struct LoadGenReport
{
    std::vector<StreamCase> cases;
    std::vector<Divergence> divergences;

    unsigned sessions = 0;
    unsigned workers = 0;
    unsigned provers = 0;
    TransportKind transport = TransportKind::Memory;

    double captureSeconds = 0; ///< corpus build (simulate + record)
    double wallSeconds = 0;    ///< feed + verify + drain
    double verificationsPerSec = 0;
    double p50LatencySeconds = 0;
    double p99LatencySeconds = 0;
    double bytesPerSession = 0;
    u64 totalBytes = 0;

    // Per-session transport-memory accounting (occupancy high-water):
    // the mean across sessions and the single worst session. Bounded by
    // the transport capacity — a maxed-out high-water means the prover
    // hit back-pressure.
    double peakBytesPerSession = 0;
    u64 maxPeakBytes = 0;

    // Cross-session dedup outcome (service-wide cache counters).
    u64 dedupHits = 0;
    u64 dedupMisses = 0;
    u64 dedupEvictions = 0;
    double dedupHitRate = 0; ///< hits / (hits + misses), 0 when off

    /** Canonical sorted per-session verdict lines (divergence oracle
     *  across transports: must be byte-identical). */
    std::vector<std::string> verdictLines;
};

/** Build the corpus, run the session fan-out, adjudicate divergences.
 *  Errors raised on prover threads (FatalError when a socket session
 *  cannot be opened) are rethrown to the caller. */
LoadGenReport runLoadGen(const LoadGenOptions &opts);

} // namespace rev::verifier

#endif // REV_VERIFIER_LOADGEN_HPP
