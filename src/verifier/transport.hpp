/**
 * @file
 * Transport: how a prover's measurement bytes reach the verifier
 * service.
 *
 * The service and the StreamVerifier see one interface; a session runs
 * over either implementation without noticing which:
 *
 *  - RingTransport: the in-memory ByteRing (lock-free SPSC,
 *    back-pressure by accepting fewer bytes).
 *  - SocketTransport: a nonblocking Unix-domain socketpair carrying
 *    *length-framed* RVMS chunks. The prover side frames each send()
 *    into [u32 LE length][payload] records (one pending frame is
 *    buffered locally, so back-pressure is bounded, not unbounded
 *    queueing); the verifier side reassembles partial reads with a
 *    FrameDecoder and hands the service a plain byte stream.
 *
 * Neither transport wakes the service by itself: the prover reaches the
 * service through offer()/closeSession(), which schedule the session on
 * the service's ready queue (see service.hpp for the two scheduling
 * invariants this relies on).
 *
 * Framing rules (the FrameDecoder contract):
 *  - A frame is 4 bytes little-endian payload length, then exactly
 *    that many payload bytes. Valid lengths are 1..kMaxFramePayload.
 *  - The decoder is *total*: arbitrary bytes never crash it. A length
 *    prefix outside the valid range marks the stream corrupt() — the
 *    service renders a malformed-stream verdict — and all further
 *    input is discarded (so a corrupt session cannot back-pressure its
 *    prover forever, and cannot grow the reassembly buffer).
 *  - EOF in the middle of a frame is a *disconnect*, not corruption:
 *    the complete payload decoded so far stands, and the session
 *    adjudicates as a truncated stream — byte-identical to a ring
 *    whose prover died mid-record.
 *
 * Thread contract (mirrors ByteRing): send()/closeSend() are called by
 * the session's single prover thread; recv()/finished()/corrupt() by
 * the one worker currently holding the session. peakBytes() may be
 * read by the controller after the session settles.
 */

#ifndef REV_VERIFIER_TRANSPORT_HPP
#define REV_VERIFIER_TRANSPORT_HPP

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "verifier/ring.hpp"

namespace rev::verifier
{

/** Largest payload one frame may carry on a socket transport. */
inline constexpr std::size_t kMaxFramePayload = 1u << 16;

/** Bytes of length prefix per frame. */
inline constexpr std::size_t kFrameHeaderBytes = 4;

/** Session transport between one prover and the verifier service. */
class Transport
{
  public:
    virtual ~Transport() = default;

    // --- prover side ----------------------------------------------------
    /** Append up to @p n stream bytes; returns bytes accepted
     *  (back-pressure when fewer). Accepted bytes are guaranteed to be
     *  delivered in order unless the transport is torn down. */
    virtual std::size_t send(const u8 *data, std::size_t n) = 0;

    /**
     * No further bytes will be sent (idempotent). Sealing may need the
     * reader: a socket first pushes the tail of its last frame into the
     * kernel, which has room only after the verifier side drains it.
     * @return true once the stream is sealed; false means "call again
     *         after the reader has run" (never blocks).
     */
    virtual bool closeSend() = 0;

    // --- verifier side --------------------------------------------------
    /** Drain up to @p max decoded stream bytes into @p out; 0 = nothing
     *  available right now. */
    virtual std::size_t recv(u8 *out, std::size_t max) = 0;

    /** Decoded bytes known to be waiting (a socket counts only bytes
     *  already read out of the kernel; may under-report). */
    virtual std::size_t readable() const = 0;

    /** Close-of-stream seen and every decoded byte delivered. */
    virtual bool finished() const = 0;

    /** The transport framing itself was violated (never set by honest
     *  truncation — see finished()). */
    virtual bool corrupt() const { return false; }

    /** Peak bytes this session buffered in transit (memory accounting;
     *  feeds SessionReport.peakBytes). */
    virtual std::size_t peakBytes() const = 0;
};

/** The in-memory transport: a thin adapter over ByteRing. */
class RingTransport final : public Transport
{
  public:
    explicit RingTransport(std::size_t capacity) : ring_(capacity) {}

    std::size_t send(const u8 *data, std::size_t n) override
    {
        return ring_.write(data, n);
    }
    bool
    closeSend() override
    {
        ring_.closeWrite();
        return true;
    }

    std::size_t recv(u8 *out, std::size_t max) override
    {
        return ring_.read(out, max);
    }
    std::size_t readable() const override { return ring_.readable(); }
    bool finished() const override
    {
        return ring_.writeClosed() && ring_.readable() == 0;
    }
    std::size_t peakBytes() const override { return ring_.highWater(); }

    ByteRing &ring() { return ring_; }

  private:
    ByteRing ring_;
};

/**
 * Reassembles length-framed transport bytes into the plain RVMS byte
 * stream. Total on arbitrary input; see the framing rules above.
 */
class FrameDecoder
{
  public:
    /** Append raw transport bytes (partial reads welcome). Input after
     *  corruption is discarded. */
    void push(const u8 *data, std::size_t n);

    /** Drain up to @p max decoded payload bytes into @p out. */
    std::size_t take(u8 *out, std::size_t max);

    /** Sender closed: a partial trailing frame becomes honest
     *  truncation (its decoded prefix stands, the torn tail is lost —
     *  exactly what a mid-record disconnect means). */
    void markEof() { eof_ = true; }

    bool corrupt() const { return corrupt_; }
    bool eofSeen() const { return eof_; }
    std::size_t pending() const { return payload_.size() - payloadOff_; }

    /** Reassembly-buffer occupancy high-water (memory accounting). */
    std::size_t peakBuffered() const { return peak_; }

    /** Reference encoder: frame @p n payload bytes onto @p out,
     *  splitting at kMaxFramePayload. */
    static void encodeFrame(std::vector<u8> *out, const u8 *payload,
                            std::size_t n);

  private:
    void parse();

    std::vector<u8> raw_; ///< undecoded transport bytes
    std::size_t rawOff_ = 0;
    std::vector<u8> payload_; ///< decoded stream bytes not yet taken
    std::size_t payloadOff_ = 0;
    std::size_t need_ = 0; ///< payload bytes owed by the current frame
    std::size_t peak_ = 0;
    bool corrupt_ = false;
    bool eof_ = false;
};

/**
 * Unix-domain socketpair transport with length-framed RVMS chunks.
 * Nonblocking on both ends: a full kernel buffer back-pressures the
 * prover (send() accepts 0), partial reads reassemble through the
 * FrameDecoder. Only available on POSIX hosts: elsewhere valid() is
 * false and the service refuses to open socket sessions.
 */
class SocketTransport final : public Transport
{
  public:
    /** @param bufBytes Requested kernel socket buffer size (the
     *  back-pressure horizon, analogous to the ring capacity). */
    explicit SocketTransport(std::size_t bufBytes = kDefaultRingBytes);
    ~SocketTransport() override;

    SocketTransport(const SocketTransport &) = delete;
    SocketTransport &operator=(const SocketTransport &) = delete;

    std::size_t send(const u8 *data, std::size_t n) override;
    bool closeSend() override;

    std::size_t recv(u8 *out, std::size_t max) override;
    std::size_t readable() const override { return rx_.pending(); }
    bool finished() const override;
    bool corrupt() const override { return rx_.corrupt(); }
    std::size_t peakBytes() const override;

    /** True when socketpair() could be created (health check). */
    bool valid() const { return rfd_ >= 0 && wfd_ >= 0; }

  private:
    /** Try to push the buffered frame remainder into the socket (a
     *  dead peer drops it: the stream reads as truncated).
     *  @return true once nothing is pending. */
    bool flushPending();

    int wfd_ = -1; ///< prover end
    int rfd_ = -1; ///< verifier end

    // Prover-side: at most one partially-written frame.
    std::vector<u8> pending_;
    std::size_t pendingOff_ = 0;
    bool sendClosed_ = false; ///< closeSend() called: no more frames
    bool shut_ = false;       ///< tail flushed and SHUT_WR sent

    // Verifier-side reassembly.
    FrameDecoder rx_;
    bool eof_ = false;

    std::atomic<std::size_t> peak_{0}; ///< cross-thread max of both sides
};

} // namespace rev::verifier

#endif // REV_VERIFIER_TRANSPORT_HPP
