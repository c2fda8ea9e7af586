#include "verify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#include "common/random.hpp"
#include "core/simulator.hpp"
#include "program/trace.hpp"
#include "tracer.hpp"
#include "validate/stream.hpp"
#include "verifier/service.hpp"
#include "workloads/scheduler.hpp"

namespace revbench
{

using namespace rev;

Corpus
buildCorpus(const std::vector<workloads::WorkloadProfile> &profs,
            const std::vector<validate::Backend> &backends, u64 instrBudget)
{
    Corpus corpus;
    const core::SimConfig base;
    for (const workloads::WorkloadProfile &prof : profs) {
        auto pr = std::make_unique<ProgramRefs>();
        {
            trace::Scope span("workloads.generate");
            pr->program = workloads::buildProgram(prof);
        }
        // The verifier holds its own vault and store with the prover's
        // fuses and seeds; the simulators below clone the store, so both
        // sides' tables are byte-identical by construction.
        pr->vault = std::make_unique<crypto::KeyVault>(base.cpuSeed);
        {
            trace::Scope span("sig.store_build");
            pr->store = std::make_unique<sig::SigStore>(
                pr->program, base.mode, *pr->vault, base.toolchainSeed,
                base.core.splitLimits, base.rev.chg.hashRounds);
        }
        {
            trace::Scope span("validate.refstore_build");
            pr->refs = std::make_unique<validate::RefStore>(*pr->store,
                                                            pr->vault.get());
        }

        // Execute once, capture every backend's stream from the trace.
        prog::Trace trace;
        const bool replay = prog::replayEnabledFromEnv();
        if (replay) {
            trace::Scope span("core.record_trace");
            core::SimConfig rc = base;
            rc.core.maxInstrs = instrBudget;
            rc.sigStorePrototype = pr->store.get();
            prog::TraceRecorder recorder;
            rc.traceRecorder = &recorder;
            core::Simulator sim(pr->program, rc);
            sim.run();
            trace = recorder.take();
        }
        for (const validate::Backend backend : backends) {
            trace::Scope span("core.capture_stream");
            core::SimConfig cfg = base;
            cfg.core.maxInstrs = instrBudget;
            cfg.backend = backend;
            cfg.sigStorePrototype = pr->store.get();
            validate::StreamWriter writer;
            cfg.measurementSink = &writer;
            if (replay && trace.replayable())
                cfg.replayTrace = &trace;
            core::Simulator sim(pr->program, cfg);
            const core::SimResult res = sim.run();
            sim.validator()->sealMeasurement();

            StreamCase c;
            c.bench = prof.name;
            c.backend = backend;
            c.refs = pr->refs.get();
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
            corpus.cases.push_back(std::move(c));
        }
        corpus.programs.push_back(std::move(pr));
    }
    return corpus;
}

std::string
divergence(const StreamCase &c, const validate::StreamVerdict &v)
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

namespace
{

enum class Phase : u8
{
    Warm,
    Open,
    Closed,
};

/** One session as the generator saw it (seconds on the tracer clock). */
struct Session
{
    u64 id = 0;
    std::size_t caseIdx = 0;
    Phase phase = Phase::Warm;
    double due = 0;
    double opened = 0;
    double closed = 0;
};

/** Longest the generator waits for outstanding verdicts. */
constexpr double kVerdictDeadlineSeconds = 60;

/** Idle back-off of the generator loop. */
constexpr auto kIdle = std::chrono::microseconds(20);

/** The single generator thread: opens sessions, feeds their streams
 *  through non-blocking offer() calls, closes them. */
class Generator
{
  public:
    Generator(const Corpus &corpus, const LoadOptions &opts,
              verifier::VerifierService &svc, LoadResult &r)
        : corpus_(corpus), opts_(opts), svc_(svc), r_(r)
    {
    }

    void
    open(std::size_t caseIdx, Phase phase, double due)
    {
        const double t = trace::now();
        const u64 id = svc_.openSession(*corpus_.cases[caseIdx].refs,
                                        verifier::TransportKind::Memory,
                                        opts_.ringBytes);
        sessions_.push_back({id, caseIdx, phase, due, t, 0});
        feeds_.push_back({sessions_.size() - 1, 0});
    }

    /** One pass over the unsent streams. @return progress was made. */
    bool
    pump()
    {
        bool progressed = false;
        for (std::size_t i = 0; i < feeds_.size();) {
            Feed &f = feeds_[i];
            Session &s = sessions_[f.session];
            const std::vector<u8> &bytes = corpus_.cases[s.caseIdx].stream;
            const std::size_t n = bytes.size() - f.off;
            if (n != 0) {
                const auto t0 = Clock::now();
                const std::size_t took =
                    svc_.offer(s.id, bytes.data() + f.off, n);
                r_.offerSeconds += secondsSince(t0);
                ++r_.offers;
                if (took < n)
                    ++r_.retries;
                f.off += took;
                progressed |= took != 0;
            }
            if (f.off == bytes.size()) {
                s.closed = trace::now();
                svc_.closeSession(s.id);
                feeds_[i] = feeds_.back();
                feeds_.pop_back();
                progressed = true;
                continue;
            }
            ++i;
        }
        return progressed;
    }

    bool idle() const { return feeds_.empty(); }

    /** Feed everything still unsent. */
    void
    flush()
    {
        while (!feeds_.empty())
            if (!pump())
                std::this_thread::sleep_for(kIdle);
    }

    /** Wait until every opened session has its verdict; false on
     *  timeout. Calls @p onPoll with the adjudicated count meanwhile. */
    template <typename F>
    bool
    awaitVerdicts(F &&onPoll)
    {
        const double deadline = trace::now() + kVerdictDeadlineSeconds;
        for (;;) {
            const u64 adj = svc_.sessionsAdjudicated();
            onPoll(adj);
            if (adj == svc_.sessionsOpened())
                return true;
            if (trace::now() > deadline)
                return false;
            std::this_thread::sleep_for(kIdle);
        }
    }

    bool
    awaitVerdicts()
    {
        return awaitVerdicts([](u64) {});
    }

    std::vector<Session> &sessions() { return sessions_; }

  private:
    struct Feed
    {
        std::size_t session = 0;
        std::size_t off = 0;
    };

    const Corpus &corpus_;
    const LoadOptions &opts_;
    verifier::VerifierService &svc_;
    LoadResult &r_;
    std::vector<Session> sessions_;
    std::vector<Feed> feeds_;
};

verifier::UnitCacheStats
minus(const verifier::UnitCacheStats &a, const verifier::UnitCacheStats &b)
{
    verifier::UnitCacheStats d;
    d.hits = a.hits - b.hits;
    d.misses = a.misses - b.misses;
    d.evictions = a.evictions - b.evictions;
    d.entries = a.entries;
    return d;
}

} // namespace

LoadResult
runLoad(const Corpus &corpus, const LoadOptions &opts)
{
    LoadResult r;
    verifier::ServiceOptions sopts;
    sopts.workers = opts.workers;
    sopts.dedupEntries = opts.dedupEntries;
    verifier::VerifierService svc(sopts);
    Generator gen(corpus, opts, svc, r);
    Rng rng(opts.seed);
    const std::size_t nCases = corpus.cases.size();
    bool adjudicated = true;

    // The fleet attests in rounds: every case once per round, in a
    // seeded random order.
    std::vector<std::size_t> round;
    std::size_t roundPos = 0;
    auto nextCase = [&] {
        if (roundPos == round.size()) {
            round.resize(nCases);
            for (std::size_t i = 0; i < nCases; ++i)
                round[i] = i;
            for (std::size_t i = nCases; i > 1; --i)
                std::swap(round[i - 1], round[rng.below(i)]);
            roundPos = 0;
        }
        return round[roundPos++];
    };

    // Warm-up: every case once, so the shared cache starts as a
    // long-running service's would.
    for (std::size_t c = 0; c < nCases; ++c)
        gen.open(c, Phase::Warm, trace::now());
    gen.flush();
    adjudicated &= gen.awaitVerdicts();
    const verifier::UnitCacheStats cacheBase = svc.cacheStats();

    // Open loop: seeded Poisson arrivals.
    const double openStart = trace::now();
    std::vector<double> dues;
    std::vector<std::size_t> caseOf;
    for (double t = 0;;) {
        t += -std::log(1.0 - rng.uniform()) / opts.rate;
        if (t >= opts.openSeconds)
            break;
        dues.push_back(openStart + t);
        caseOf.push_back(nextCase());
    }
    for (std::size_t next = 0; next < dues.size() || !gen.idle();) {
        const double now = trace::now();
        while (next < dues.size() && dues[next] <= now) {
            gen.open(caseOf[next], Phase::Open, dues[next]);
            ++next;
        }
        if (gen.pump())
            continue;
        if (next < dues.size() && gen.idle())
            std::this_thread::sleep_for(
                std::chrono::duration<double>(dues[next] - trace::now()));
        else
            std::this_thread::sleep_for(kIdle);
    }
    adjudicated &= gen.awaitVerdicts();
    const double openEnd = trace::now();

    // Closed loop: a fixed number of sessions in flight.
    const double closedStart = trace::now();
    const u64 adjBase = svc.sessionsAdjudicated();
    std::vector<double> batchEnds;
    double lastVerdict = closedStart;
    u64 lastAdj = adjBase;
    auto onPoll = [&](u64 adj) {
        if (adj != lastAdj) {
            lastAdj = adj;
            lastVerdict = trace::now();
        }
        while (adj - adjBase >= (batchEnds.size() + 1) * opts.batch)
            batchEnds.push_back(lastVerdict);
    };
    u64 closedOpened = 0;
    while (trace::now() - closedStart < opts.closedSeconds) {
        while (svc.sessionsOpened() - svc.sessionsAdjudicated() <
               opts.outstanding) {
            gen.open(nextCase(), Phase::Closed, trace::now());
            ++closedOpened;
        }
        const bool progressed = gen.pump();
        onPoll(svc.sessionsAdjudicated());
        if (!progressed)
            std::this_thread::sleep_for(kIdle);
    }
    gen.flush();
    adjudicated &= gen.awaitVerdicts(onPoll);
    r.closedSessions = closedOpened;
    r.closedSeconds = lastVerdict - closedStart;
    for (std::size_t b = 0; b < batchEnds.size(); ++b)
        r.batchSeconds.push_back(batchEnds[b] -
                                 (b == 0 ? closedStart : batchEnds[b - 1]));

    std::vector<Session> &sessions = gen.sessions();
    r.sessions = sessions.size();
    if (!adjudicated) {
        // Reports are only safe to read once every session drained.
        r.failed = r.sessions - svc.sessionsAdjudicated();
        r.firstFailure = "sessions never adjudicated";
        r.latencyMs.assign(dues.size(),
                           std::numeric_limits<double>::infinity());
        return r;
    }
    svc.drain();
    r.cache = minus(svc.cacheStats(), cacheBase);

    const std::vector<verifier::SessionReport> reports = svc.reports();
    const u32 openSpan = trace::record("verifier.open_loop", openStart,
                                       openEnd);
    for (const Session &s : sessions) {
        const verifier::SessionReport &rep = reports.at(s.id);
        const StreamCase &c = corpus.cases[s.caseIdx];
        const std::string d = divergence(c, rep.verdict);
        if (!d.empty()) {
            if (r.failed++ == 0)
                r.firstFailure = c.bench + "/" +
                                 validate::backendName(c.backend) + ": " + d;
        }
        if (s.phase != Phase::Open)
            continue;
        const double verdictAt = s.closed + rep.latencySeconds;
        r.latencyMs.push_back(d.empty()
                                  ? (verdictAt - s.due) * 1e3
                                  : std::numeric_limits<double>::infinity());
        r.dueToCloseMs.push_back((s.closed - s.due) * 1e3);
        r.closeToVerdictMs.push_back(rep.latencySeconds * 1e3);
        r.generatorLagMs.push_back((s.opened - s.due) * 1e3);
        const u32 span = trace::record("verifier.session", s.due, verdictAt,
                                       openSpan, s.id);
        trace::record("verifier.due_to_close", s.due, s.closed, span, s.id);
        trace::record("verifier.close_to_verdict", s.closed, verdictAt, span,
                      s.id);
    }
    trace::record("verifier.closed_loop", closedStart, lastVerdict);
    return r;
}

void
append(LoadResult &into, const LoadResult &r)
{
    if (into.failed == 0 && r.failed != 0)
        into.firstFailure = r.firstFailure;
    into.sessions += r.sessions;
    into.failed += r.failed;
    auto cat = [](std::vector<double> &a, const std::vector<double> &b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    cat(into.latencyMs, r.latencyMs);
    cat(into.dueToCloseMs, r.dueToCloseMs);
    cat(into.closeToVerdictMs, r.closeToVerdictMs);
    cat(into.generatorLagMs, r.generatorLagMs);
    cat(into.batchSeconds, r.batchSeconds);
    into.closedSessions += r.closedSessions;
    into.closedSeconds += r.closedSeconds;
    into.offers += r.offers;
    into.retries += r.retries;
    into.offerSeconds += r.offerSeconds;
    into.cache.hits += r.cache.hits;
    into.cache.misses += r.cache.misses;
    into.cache.evictions += r.cache.evictions;
    into.cache.entries = r.cache.entries;
}

void
reportVerifierLayer(const LoadResult &r, Outcome &out)
{
    out.layer("verifier.sessions", static_cast<double>(r.sessions), "count");
    out.layer("verifier.offer_us",
              r.offers ? r.offerSeconds / static_cast<double>(r.offers) * 1e6
                       : 0,
              "us");
    out.layer("verifier.retries", static_cast<double>(r.retries), "count");
    out.layer("verifier.due_to_close_p50_ms", median(r.dueToCloseMs), "ms");
    out.layer("verifier.due_to_close_p99_ms", tailQuantile(r.dueToCloseMs),
              "ms");
    out.layer("verifier.close_to_verdict_p50_ms", median(r.closeToVerdictMs),
              "ms");
    out.layer("verifier.close_to_verdict_p99_ms",
              tailQuantile(r.closeToVerdictMs), "ms");
    out.layer("verifier.generator_lag_ms", tailQuantile(r.generatorLagMs),
              "ms");
    const u64 lookups = r.cache.hits + r.cache.misses;
    out.layer("verifier.dedup_hit_ratio",
              lookups ? static_cast<double>(r.cache.hits) /
                            static_cast<double>(lookups)
                      : 0,
              "ratio");
    out.layer("verifier.dedup_evictions",
              static_cast<double>(r.cache.evictions), "count");
}

} // namespace revbench
