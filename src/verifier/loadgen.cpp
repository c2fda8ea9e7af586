#include "verifier/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/simulator.hpp"
#include "program/trace.hpp"
#include "validate/refstore.hpp"
#include "validate/stream.hpp"
#include "workloads/generator.hpp"
#include "workloads/profile.hpp"

namespace rev::verifier
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Reference material of one workload, shared by its corpus entries. */
struct BenchRefs
{
    prog::Program program;
    std::unique_ptr<crypto::KeyVault> vault;
    std::unique_ptr<sig::SigStore> store;
    std::unique_ptr<validate::RefStore> refs;
};

/** Compare one adjudicated session against its case's inline golden. */
std::string
divergenceDetail(const StreamCase &c, const validate::StreamVerdict &v)
{
    std::ostringstream os;
    auto field = [&](const char *name, u64 got, u64 want) {
        if (got != want)
            os << name << " " << got << " != inline " << want << "; ";
    };
    if (!v.complete)
        os << "session not adjudicated; ";
    if (v.detected != c.detected)
        os << "verdict " << (v.detected ? "Detected" : "Benign")
           << " != inline " << (c.detected ? "Detected" : "Benign") << "; ";
    else if (v.reason != c.reason)
        os << "reason '" << v.reason << "' != inline '" << c.reason
           << "'; ";
    field("bbValidated", v.bbValidated, c.bbValidated);
    field("violations", v.violations, c.violations);
    field("chainUpdates", v.chainUpdates, c.chainUpdates);
    field("bufferSpills", v.bufferSpills, c.bufferSpills);
    field("spillBytes", v.spillBytes, c.spillBytes);
    field("unattestedBlocks", v.unattestedBlocks, c.unattestedBlocks);
    field("edgeViolations", v.edgeViolations, c.edgeViolations);
    return os.str();
}

/** One canonical verdict line: everything adjudication-relevant, no
 *  session id (ids depend on open-order races), so the sorted stream is
 *  transport/worker/dedup-invariant. */
std::string
verdictLine(std::size_t caseIdx, const StreamCase &c,
            const validate::StreamVerdict &v)
{
    std::ostringstream os;
    os << "case=" << caseIdx << " bench=" << c.bench
       << " backend=" << validate::backendName(c.backend)
       << " complete=" << (v.complete ? 1 : 0)
       << " detected=" << (v.detected ? 1 : 0) << " reason='" << v.reason
       << "'"
       << " bb=" << v.bbValidated << " viol=" << v.violations
       << " chain=" << v.chainUpdates << " spills=" << v.bufferSpills
       << " spillBytes=" << v.spillBytes
       << " unattested=" << v.unattestedBlocks
       << " edges=" << v.edgeViolations;
    return os.str();
}

} // namespace

LoadGenReport
runLoadGen(const LoadGenOptions &opts)
{
    LoadGenReport report;
    report.sessions = std::max(1u, opts.sessions);
    report.workers = std::max(1u, opts.workers);
    report.provers = std::max(1u, opts.provers);
    report.transport = opts.transport;

    std::vector<std::string> benches = opts.benchmarks;
    if (benches.empty())
        benches = {"bzip2", "mcf"};

    // ---- Phase 1: corpus capture. One simulated run per (workload,
    // backend), measurement stream and inline golden side by side.
    const auto captureStart = Clock::now();
    const core::SimConfig base; // defaults shared with every run below
    std::vector<std::unique_ptr<BenchRefs>> refsByBench;
    std::vector<std::size_t> caseRefIdx; // case -> refsByBench slot

    for (const std::string &name : benches) {
        auto br = std::make_unique<BenchRefs>();
        br->program =
            workloads::generateWorkload(workloads::specProfile(name));
        // The verifier's reference material is the toolchain's, not the
        // prover's: an independently built vault + store with the same
        // fuses and seeds. The Simulator below clones this store, so the
        // tables both sides hold are byte-identical by construction.
        br->vault = std::make_unique<crypto::KeyVault>(base.cpuSeed);
        br->store = std::make_unique<sig::SigStore>(
            br->program, base.mode, *br->vault, base.toolchainSeed,
            base.core.splitLimits, base.rev.chg.hashRounds);
        br->refs = std::make_unique<validate::RefStore>(*br->store,
                                                        br->vault.get());

        // Record the architectural trace once (REV config: lowest drain
        // watermark) and replay it into every backend's capture run when
        // REV_TRACE_REPLAY allows — mirroring the sweep's record-once
        // discipline and exercising the replay path end to end.
        prog::Trace trace;
        const bool replay = prog::replayEnabledFromEnv();
        if (replay) {
            core::SimConfig rc = base;
            rc.core.maxInstrs = opts.instrBudget;
            rc.sigStorePrototype = br->store.get();
            prog::TraceRecorder recorder;
            rc.traceRecorder = &recorder;
            core::Simulator sim(br->program, rc);
            sim.run();
            trace = recorder.take();
        }

        for (const validate::Backend backend : opts.backends) {
            core::SimConfig cfg = base;
            cfg.core.maxInstrs = opts.instrBudget;
            cfg.backend = backend;
            cfg.sigStorePrototype = br->store.get();
            validate::StreamWriter writer;
            cfg.measurementSink = &writer;
            if (replay && trace.replayable())
                cfg.replayTrace = &trace;

            core::Simulator sim(br->program, cfg);
            const core::SimResult res = sim.run();
            // Budget-exhausted runs neither halt nor fault; the harness
            // owns the session end, so seal explicitly (idempotent).
            sim.validator()->sealMeasurement();

            StreamCase c;
            c.bench = name;
            c.backend = backend;
            c.replayed = sim.replayActive();
            c.stream = writer.take();
            c.detected = res.run.violation.has_value();
            c.reason = sim.validator()->violationReason();
            c.bbValidated = res.validation.bbValidated;
            c.violations = res.validation.violations;
            c.chainUpdates = res.lofat.chainUpdates;
            c.bufferSpills = res.lofat.bufferSpills;
            c.spillBytes = res.lofat.spillBytes;
            c.unattestedBlocks = res.lofat.unattestedBlocks;
            c.edgeViolations = res.lofat.edgeViolations;
            report.cases.push_back(std::move(c));
            caseRefIdx.push_back(refsByBench.size());
        }
        refsByBench.push_back(std::move(br));
    }
    report.captureSeconds = secondsSince(captureStart);

    // ---- Phase 2: session fan-out. Prover threads claim session slots
    // from a shared counter and open them lazily, each keeping at most
    // window/provers sessions live (SPSC holds: the claiming thread is
    // the only producer its sessions ever see). Finished sessions free
    // their transports inside the service, so a bounded window keeps
    // 100k-session soaks at a flat memory profile.
    ServiceOptions sopts;
    sopts.workers = report.workers;
    sopts.dedupEntries = opts.dedupEntries;
    VerifierService service(sopts);

    const unsigned window =
        opts.window == 0 ? report.sessions
                         : std::max(opts.window, report.provers);
    const unsigned perProver =
        std::max(1u, window / report.provers);

    std::atomic<u64> nextSlot{0};
    std::vector<std::pair<u64, std::size_t>> idToCase; // session id -> case
    std::mutex idToCaseLock;

    // A prover that throws (a socket session that cannot be opened is
    // a FatalError) stops every prover; the first error is rethrown on
    // the caller's thread once they have all joined.
    std::exception_ptr proverError;
    std::atomic<bool> failed{false};
    const auto proverLoop = [&] {
        struct Feed
        {
            u64 session;
            const std::vector<u8> *stream;
            std::size_t off = 0;
        };
        std::vector<Feed> feeds;
        std::vector<std::pair<u64, std::size_t>> openedHere;
        bool exhausted = false;
        for (;;) {
            if (failed.load(std::memory_order_relaxed))
                return; // another prover failed; main rethrows
            // Refill the live window from the shared slot counter.
            // The window bounds *unadjudicated* sessions, not just
            // this prover's feeds: a closed session still holds its
            // transport (fds, buffers) until the verifier renders
            // its verdict, so opening ahead of the verification
            // backlog would hoard fds at soak scale.
            while (!exhausted && feeds.size() < perProver &&
                   service.sessionsOpened() -
                           service.sessionsAdjudicated() <
                       window) {
                const u64 slot =
                    nextSlot.fetch_add(1, std::memory_order_relaxed);
                if (slot >= report.sessions) {
                    exhausted = true;
                    break;
                }
                const std::size_t ci = slot % report.cases.size();
                const u64 id = service.openSession(
                    *refsByBench[caseRefIdx[ci]]->refs, opts.transport,
                    opts.ringBytes);
                openedHere.emplace_back(id, ci);
                feeds.push_back({id, &report.cases[ci].stream, 0});
            }
            if (feeds.empty()) {
                if (exhausted)
                    break;
                // Backlogged: wait for the verifier to catch up.
                std::this_thread::yield();
                continue;
            }

            bool progressed = false;
            for (std::size_t i = 0; i < feeds.size();) {
                Feed &f = feeds[i];
                if (f.off < f.stream->size()) {
                    const std::size_t n =
                        std::min(opts.chunkBytes,
                                 f.stream->size() - f.off);
                    const std::size_t accepted = service.offer(
                        f.session, f.stream->data() + f.off, n);
                    f.off += accepted;
                    progressed |= accepted != 0;
                }
                if (f.off >= f.stream->size()) {
                    service.closeSession(f.session);
                    progressed = true;
                    feeds[i] = feeds.back();
                    feeds.pop_back();
                    continue; // the swapped-in feed runs this pass
                }
                ++i;
            }
            // Every transport full: let the verifier workers run.
            if (!progressed)
                std::this_thread::yield();
        }
        std::lock_guard<std::mutex> lock(idToCaseLock);
        idToCase.insert(idToCase.end(), openedHere.begin(),
                        openedHere.end());
    };

    const auto feedStart = Clock::now();
    std::vector<std::thread> provers;
    for (unsigned p = 0; p < report.provers; ++p) {
        provers.emplace_back([&] {
            try {
                proverLoop();
            } catch (...) {
                std::lock_guard<std::mutex> lock(idToCaseLock);
                if (!proverError)
                    proverError = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread &t : provers)
        t.join();
    if (proverError)
        std::rethrow_exception(proverError);
    service.drain();
    report.wallSeconds = secondsSince(feedStart);

    // ---- Phase 3: adjudicate divergences and summarize.
    std::vector<std::size_t> sessionCase(service.sessionsOpened());
    for (const auto &[id, ci] : idToCase)
        sessionCase[id] = ci;

    const std::vector<SessionReport> sessions = service.reports();
    std::vector<double> latencies;
    latencies.reserve(sessions.size());
    report.verdictLines.reserve(sessions.size());
    for (const SessionReport &s : sessions) {
        const std::size_t ci = sessionCase[s.id];
        const std::string detail =
            divergenceDetail(report.cases[ci], s.verdict);
        if (!detail.empty())
            report.divergences.push_back({s.id, ci, detail});
        report.verdictLines.push_back(
            verdictLine(ci, report.cases[ci], s.verdict));
        report.totalBytes += s.bytes;
        report.peakBytesPerSession += static_cast<double>(s.peakBytes);
        report.maxPeakBytes = std::max(report.maxPeakBytes, s.peakBytes);
        latencies.push_back(s.latencySeconds);
    }
    std::sort(report.verdictLines.begin(), report.verdictLines.end());
    if (!sessions.empty())
        report.peakBytesPerSession /= static_cast<double>(sessions.size());
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
        if (latencies.empty())
            return 0.0;
        const std::size_t i = std::min(
            latencies.size() - 1,
            static_cast<std::size_t>(p * static_cast<double>(
                                             latencies.size() - 1)));
        return latencies[i];
    };
    report.p50LatencySeconds = pct(0.50);
    report.p99LatencySeconds = pct(0.99);
    report.verificationsPerSec =
        report.wallSeconds > 0
            ? static_cast<double>(sessions.size()) / report.wallSeconds
            : 0;
    report.bytesPerSession =
        sessions.empty() ? 0
                         : static_cast<double>(report.totalBytes) /
                               static_cast<double>(sessions.size());

    const UnitCacheStats cs = service.cacheStats();
    report.dedupHits = cs.hits;
    report.dedupMisses = cs.misses;
    report.dedupEvictions = cs.evictions;
    if (cs.hits + cs.misses != 0)
        report.dedupHitRate = static_cast<double>(cs.hits) /
                              static_cast<double>(cs.hits + cs.misses);
    return report;
}

} // namespace rev::verifier
