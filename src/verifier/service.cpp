#include "verifier/service.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hpp"

namespace rev::verifier
{

const char *
transportName(TransportKind kind)
{
    switch (kind) {
    case TransportKind::Memory:
        return "memory";
    case TransportKind::Socket:
        return "socket";
    }
    return "?";
}

VerifierService::VerifierService(const ServiceOptions &opts)
{
    if (opts.dedupEntries != 0)
        cache_ = std::make_unique<VerifiedUnitCache>(opts.dedupEntries);

    const unsigned workers = std::max(1u, opts.workers);
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

VerifierService::~VerifierService()
{
    {
        std::lock_guard<std::mutex> lock(readyLock_);
        stop_ = true;
    }
    readyCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

u64
VerifierService::openSession(const validate::RefStore &refs,
                             TransportKind kind, std::size_t ring_bytes)
{
    if (kind == TransportKind::Memory)
        return openSessionWith(refs,
                               std::make_unique<RingTransport>(ring_bytes));
    auto sock = std::make_unique<SocketTransport>(ring_bytes);
    if (!sock->valid())
        fatal("verifier: cannot open a socket transport: socketpair() "
              "failed (", std::strerror(errno),
              "); raise the open-file limit or use the memory transport");
    return openSessionWith(refs, std::move(sock));
}

u64
VerifierService::openSessionWith(const validate::RefStore &refs,
                                 std::unique_ptr<Transport> transport)
{
    auto s = std::make_unique<Session>();
    s->transport = std::move(transport);
    s->verifier =
        std::make_unique<validate::StreamVerifier>(refs, cache_.get());
    u64 id;
    {
        std::lock_guard<std::mutex> lock(sessionsLock_);
        id = sessions_.size();
        s->id = id;
        s->report.id = id;
        sessions_.push_back(std::move(s));
    }
    opened_.fetch_add(1, std::memory_order_relaxed);
    return id;
}

VerifierService::Session *
VerifierService::sessionPtr(u64 id) const
{
    std::lock_guard<std::mutex> lock(sessionsLock_);
    return sessions_[id].get();
}

std::size_t
VerifierService::offer(u64 session, const u8 *data, std::size_t n)
{
    Session *s = sessionPtr(session);
    if (s->done.load(std::memory_order_acquire))
        return n; // verdict latched; swallow so the prover can finish
    // Unlocked transport access is safe on the prover path: workers
    // only reset s->transport after observing proverGone, which this
    // same thread publishes at the end of closeSession() — and the
    // session contract forbids offer() after closeSession().
    const std::size_t accepted = s->transport->send(data, n);
    // Invariant 1: schedule a pass even when nothing was accepted — a
    // socket send() that returns 0 may still have moved an earlier
    // frame's remainder into the kernel, and nothing else tells a
    // worker. Already queued, this is one atomic exchange.
    notify(s);
    return accepted;
}

void
VerifierService::closeSession(u64 session)
{
    Session *s = sessionPtr(session);
    s->closedAt = Clock::now();
    Transport *t = s->transport.get(); // safe: see offer()
    s->closeSeen.store(true, std::memory_order_seq_cst);
    // Invariant 2: the service drives the close flush. A socket seals
    // only once its last frame is whole in the kernel, and the kernel
    // takes the remainder only as a worker drains the reader side —
    // which happens only after a notify(). A done session still drains
    // (service() discards its bytes), so this loop always ends.
    while (!t->closeSend()) {
        notify(s);
        std::this_thread::yield();
    }
    // Last prover-side transport access is done: from here on a worker
    // pass that observes this flag may tear the transport down.
    s->proverGone.store(true, std::memory_order_seq_cst);
    closed_.fetch_add(1, std::memory_order_relaxed);
    // Every close schedules one pass guaranteed to observe proverGone
    // (closeNotify's ordering argument), so even a session with nothing
    // left to read — EOF or corruption already consumed — is drained,
    // retired, and counted.
    closeNotify(s);
    // Dekker pairing with finishSession(): whichever of close/finish
    // runs second observes the other's flag and counts the session.
    if (s->done.load(std::memory_order_seq_cst))
        countDrained(s);
}

void
VerifierService::countDrained(Session *s)
{
    if (s->counted.exchange(true, std::memory_order_acq_rel))
        return;
    {
        // Bump under doneLock_ so drain() cannot test its predicate
        // between the increment and the notify (lost wakeup).
        std::lock_guard<std::mutex> done(doneLock_);
        drained_.fetch_add(1, std::memory_order_release);
    }
    doneCv_.notify_all();
}

void
VerifierService::notify(Session *s)
{
    // One queue slot per session: first notifier wins, the worker that
    // pops the session clears the flag before draining and re-checks the
    // transport afterwards, so bytes arriving during the drain are never
    // lost.
    if (s->queued.exchange(true, std::memory_order_acq_rel))
        return;
    {
        std::lock_guard<std::mutex> lock(readyLock_);
        ready_.push_back(s);
    }
    readyCv_.notify_one();
}

void
VerifierService::closeNotify(Session *s)
{
    bool enqueued = false;
    {
        // Unlike notify(), take readyLock_ even when the session is
        // already queued. Two cases, both of which order the next
        // service pass after closeSession()'s proverGone store:
        //  - the queued entry is still in the deque: its pop runs under
        //    this same lock, after our unlock (mutex happens-before);
        //  - the entry was popped but `queued` not yet cleared: our
        //    seq_cst exchange precedes the worker's seq_cst clear in
        //    the coherence order, so that pass's seq_cst proverGone
        //    load (sequenced after the clear) must observe the store.
        std::lock_guard<std::mutex> lock(readyLock_);
        if (!s->queued.exchange(true, std::memory_order_seq_cst)) {
            ready_.push_back(s);
            enqueued = true;
        }
    }
    if (enqueued)
        readyCv_.notify_one();
}

void
VerifierService::workerLoop()
{
    for (;;) {
        Session *s = nullptr;
        {
            std::unique_lock<std::mutex> lock(readyLock_);
            readyCv_.wait(lock, [&] { return stop_ || !ready_.empty(); });
            if (ready_.empty())
                return; // stop requested and queue drained
            s = ready_.front();
            ready_.pop_front();
        }
        // seq_cst: pairs with closeNotify's exchange so a close that
        // coalesced onto this entry is seen by the pass below.
        s->queued.store(false, std::memory_order_seq_cst);
        service(s);
        // Re-notify if bytes (or the close) raced in while this worker
        // held the session. Under s->work: another worker may be
        // resetting the transport concurrently.
        {
            std::lock_guard<std::mutex> work(s->work);
            Transport *t = s->transport.get();
            if (!s->done.load(std::memory_order_acquire) && t != nullptr &&
                (t->readable() != 0 || t->finished()))
                notify(s);
        }
    }
}

void
VerifierService::service(Session *s)
{
    std::lock_guard<std::mutex> lock(s->work);
    Transport *t = s->transport.get();
    if (t == nullptr)
        return; // settled and torn down

    // Load before draining: a seq_cst read of true synchronizes with
    // closeSession()'s store, so the drain below then sees every byte
    // and the close the prover published. A stale false only defers
    // teardown to the close-time pass, which is guaranteed to load true
    // (see closeNotify).
    const bool proverGone =
        s->proverGone.load(std::memory_order_seq_cst);

    u8 chunk[16384];
    if (!s->done.load(std::memory_order_relaxed)) {
        validate::StreamVerifier &v = *s->verifier;
        for (std::size_t n; (n = t->recv(chunk, sizeof(chunk))) != 0;) {
            if (!v.feed(chunk, n))
                break; // verdict latched
        }

        if (!v.done()) {
            if (t->corrupt()) {
                v.abortMalformed(); // framing violated: adjudicate now
            } else if (!t->finished()) {
                return; // the next offer() or close queues another pass
            } else {
                v.finish(); // stream closed mid-session: truncation
            }
        }

        finishSession(s, t);
    }

    // Verdict rendered: keep draining so a prover that is still feeding
    // (or sealing a socket) can finish. Its bytes are discarded; the
    // report stays frozen — it was published before `done`.
    while (t->recv(chunk, sizeof(chunk)) != 0) {
    }

    // Retire the transport once the stream is over and the prover has
    // published its close; until then the close-time pass retires it.
    if (proverGone && (t->finished() || t->corrupt()))
        s->transport.reset();
}

void
VerifierService::finishSession(Session *s, Transport *t)
{
    validate::StreamVerifier &v = *s->verifier;

    // A session that fails before its close still reports zero
    // latency: the verdict predates the close.
    if (s->closeSeen.load(std::memory_order_acquire)) {
        const double lat =
            std::chrono::duration<double>(Clock::now() - s->closedAt)
                .count();
        s->report.latencySeconds = std::max(0.0, lat);
    }
    s->report.verdict = v.verdict();
    s->report.bytes = v.bytesConsumed();
    s->report.peakBytes = t->peakBytes();
    s->report.dedupHits = v.dedupHits();
    s->report.dedupMisses = v.dedupMisses();

    // Release the decode state now — a 100k-session soak must not hold
    // every finished session's buffers. The transport is retired by the
    // caller once the prover has published its close.
    s->verifier.reset();

    adjudicated_.fetch_add(1, std::memory_order_relaxed);
    s->done.store(true, std::memory_order_seq_cst);
    if (s->closeSeen.load(std::memory_order_seq_cst))
        countDrained(s);
}

void
VerifierService::drain()
{
    std::unique_lock<std::mutex> lock(doneLock_);
    doneCv_.wait(lock, [&] {
        return drained_.load(std::memory_order_acquire) >=
               closed_.load(std::memory_order_acquire);
    });
}

std::vector<SessionReport>
VerifierService::reports() const
{
    std::lock_guard<std::mutex> lock(sessionsLock_);
    std::vector<SessionReport> out;
    out.reserve(sessions_.size());
    for (const auto &s : sessions_) {
        if (s->done.load(std::memory_order_acquire)) {
            out.push_back(s->report);
            continue;
        }
        // Unsettled session (service torn down early): snapshot live.
        std::lock_guard<std::mutex> work(s->work);
        SessionReport r = s->report;
        if (s->verifier) {
            r.verdict = s->verifier->verdict();
            r.bytes = s->verifier->bytesConsumed();
            r.dedupHits = s->verifier->dedupHits();
            r.dedupMisses = s->verifier->dedupMisses();
        }
        if (s->transport)
            r.peakBytes = s->transport->peakBytes();
        out.push_back(std::move(r));
    }
    return out;
}

UnitCacheStats
VerifierService::cacheStats() const
{
    return cache_ ? cache_->stats() : UnitCacheStats{};
}

} // namespace rev::verifier
