/**
 * @file
 * VerifierService: the session-multiplexed attestation verifier.
 *
 * The service side of the attestation split (ScaRR-style
 * attestation-as-a-service): any number of provers each hold one open
 * *session* — a Transport they write their serialized measurement
 * stream into — and a small worker pool drains ready sessions and
 * advances their StreamVerifiers.
 *
 * Scheduling is one mutex/condvar ready queue for ring and socket
 * sessions alike. Provers are in-process and reach the service only
 * through offer() and closeSession(), so the service learns of every
 * byte arrival at the call that made it; nothing has to be rediscovered
 * from the kernel. A session sits in the queue at most once (its atomic
 * `queued` flag); a worker clears the flag before draining, so bytes
 * offered during the drain queue the session again. Two invariants keep
 * a session from going dark:
 *
 *  1. offer() schedules a pass on *every* call, even one that accepted
 *     nothing: a socket send() that returns 0 may still have flushed an
 *     earlier frame's remainder into the kernel. When the session is
 *     already queued this costs one atomic exchange.
 *  2. The service drives the close flush. closeSession() retries
 *     Transport::closeSend() — which never blocks — and schedules a
 *     pass between tries until the last frame's remainder is in the
 *     kernel and the stream is sealed. A frame larger than the socket
 *     buffer therefore arrives whole instead of turning into a
 *     truncation verdict.
 *
 * Further properties:
 *  - Per-session decode state is fully resumable: the StreamVerifier
 *    consumes partial records and the socket FrameDecoder reassembles
 *    torn reads, so a worker can abandon a session mid-record at any
 *    byte boundary and any other worker can resume it later.
 *  - Provers never block workers: a full transport back-pressures only
 *    its own prover.
 *  - Cross-session dedup: all sessions share one VerifiedUnitCache, so
 *    identical (term, digest) table walks and identical LO-FAT chain
 *    folds are paid once service-wide instead of once per session.
 *    Per-session hit/miss counts surface in SessionReport next to
 *    peakBytes; service-wide counters via cacheStats().
 *  - A finished session releases its verifier and transport memory
 *    (the verdict is snapshotted into its report first), so a 100k
 *    session soak holds live state only for the in-flight window.
 *
 * Session latency is measured from close (the prover sealed the
 * transport) to the verdict render; the load generator reports the p99
 * across sessions.
 */

#ifndef REV_VERIFIER_SERVICE_HPP
#define REV_VERIFIER_SERVICE_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "validate/stream_verifier.hpp"
#include "verifier/transport.hpp"
#include "verifier/unit_cache.hpp"

namespace rev::verifier
{

/** Which transport a session runs over. */
enum class TransportKind : u8
{
    Memory, ///< in-process SPSC ByteRing
    Socket, ///< Unix-domain socketpair, length-framed chunks
};

const char *transportName(TransportKind kind);

/** Service-wide knobs. */
struct ServiceOptions
{
    unsigned workers = 1;

    /** Shared verified-unit cache capacity (entries across unit + fold
     *  key spaces); 0 disables cross-session dedup entirely. */
    std::size_t dedupEntries = 1u << 16;
};

/** Outcome of one adjudicated session. */
struct SessionReport
{
    u64 id = 0;
    validate::StreamVerdict verdict;
    u64 bytes = 0;     ///< stream bytes the verifier consumed
    u64 peakBytes = 0; ///< transport-occupancy high-water (memory this
                       ///< session actually held in transit), frozen
                       ///< when the verdict renders — bytes swallowed
                       ///< after the verdict do not raise it
    u64 dedupHits = 0;   ///< shared-cache hits this session
    u64 dedupMisses = 0; ///< shared-cache misses this session
    double latencySeconds = 0; ///< close-of-stream to verdict render
};

/**
 * The verifier service: open sessions, feed bytes, collect verdicts.
 *
 * Thread contract: openSession() may be called from any thread at any
 * time (sessions can be opened while others are mid-flight — the soak
 * load generator opens lazily in a sliding window); offer() and
 * closeSession() for one session are called by that session's single
 * prover thread; drain()/reports() by the controlling thread after the
 * provers finish. No offer() after closeSession() for the same session.
 */
class VerifierService
{
  public:
    explicit VerifierService(const ServiceOptions &opts);
    /** Convenience: @p workers workers, default dedup. */
    explicit VerifierService(unsigned workers)
        : VerifierService(ServiceOptions{workers, 1u << 16})
    {
    }
    ~VerifierService();

    VerifierService(const VerifierService &) = delete;
    VerifierService &operator=(const VerifierService &) = delete;

    /**
     * Open a session adjudicated against @p refs (per-session: one
     * service multiplexes sessions of any number of attested programs).
     * @p refs must outlive the service. Returns the session id (dense,
     * in open order). Throws FatalError when a socket session cannot be
     * created (socketpair() failed, e.g. at the open-file limit): a
     * socket run never silently runs on rings.
     */
    u64 openSession(const validate::RefStore &refs,
                    TransportKind kind = TransportKind::Memory,
                    std::size_t ringBytes = kDefaultRingBytes);

    /** Open a session over a caller-built transport (fault-injection
     *  tests wrap transports in FlakyTransport decorators). */
    u64 openSessionWith(const validate::RefStore &refs,
                        std::unique_ptr<Transport> transport);

    /**
     * Prover: append up to @p n measurement bytes to @p session.
     * @return Bytes accepted (back-pressure when the transport is full
     *         — retry the rest after the service drains). A session
     *         whose verdict is already rendered swallows further bytes.
     */
    std::size_t offer(u64 session, const u8 *data, std::size_t n);

    /** Prover: the measurement stream is complete. */
    void closeSession(u64 session);

    /** Block until every closed session is adjudicated. */
    void drain();

    /** Per-session outcomes (stable by session id). Call after drain(). */
    std::vector<SessionReport> reports() const;

    /** Service-wide dedup counters (zeros when dedup is disabled). */
    UnitCacheStats cacheStats() const;

    u64 sessionsOpened() const
    {
        return opened_.load(std::memory_order_relaxed);
    }
    /** Sessions whose verdict is rendered (closed or not). */
    u64 sessionsAdjudicated() const
    {
        return adjudicated_.load(std::memory_order_relaxed);
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct Session
    {
        u64 id = 0;
        /** Reset (under `work`) only once `proverGone` is observed, so
         *  the prover-side offer()/closeSession() accesses never race
         *  the teardown. */
        std::unique_ptr<Transport> transport;
        std::unique_ptr<validate::StreamVerifier> verifier;
        std::mutex work; ///< serializes workers over this session
        std::atomic<bool> queued{false}; ///< present in the ready queue
        std::atomic<bool> done{false};   ///< verdict rendered
        std::atomic<bool> closeSeen{false};
        /** The prover made its last transport access (published at the
         *  end of closeSession); gates transport teardown. */
        std::atomic<bool> proverGone{false};
        std::atomic<bool> counted{false}; ///< contributed to drained_
        Clock::time_point closedAt{};
        SessionReport report; ///< snapshotted at finish
    };

    Session *sessionPtr(u64 id) const;

    /** Enqueue @p s on the ready queue unless already queued. */
    void notify(Session *s);

    /** Close-time notify: guarantees a service pass that observes
     *  proverGone even when the session is already queued or a worker
     *  is mid-pass (see the ordering argument at the definition). */
    void closeNotify(Session *s);

    void workerLoop();

    /** Drain and verify everything available for @p s (one worker);
     *  retires the transport under the session lock. */
    void service(Session *s);

    /** Verdict rendered: snapshot the report, release big state. */
    void finishSession(Session *s, Transport *t);

    /** Count @p s toward drain() once it is both closed and done. */
    void countDrained(Session *s);

    // Sessions are append-only; the vector grows under sessionsLock_
    // and the unique_ptr elements give workers stable addresses.
    std::vector<std::unique_ptr<Session>> sessions_;
    mutable std::mutex sessionsLock_;
    std::atomic<u64> opened_{0};

    // The ready queue; stop_ is guarded by readyLock_ too, so a worker
    // cannot miss the shutdown wakeup between its check and its wait.
    std::deque<Session *> ready_;
    std::mutex readyLock_;
    std::condition_variable readyCv_;
    bool stop_ = false;

    std::atomic<u64> closed_{0};
    std::atomic<u64> drained_{0}; ///< sessions both closed and done
    std::atomic<u64> adjudicated_{0};
    std::condition_variable doneCv_; ///< signaled on session completion
    mutable std::mutex doneLock_;

    std::vector<std::thread> workers_;

    std::unique_ptr<VerifiedUnitCache> cache_;
};

} // namespace rev::verifier

#endif // REV_VERIFIER_SERVICE_HPP
