/**
 * @file
 * FlakyTransport: a fault-injecting Transport decorator for the
 * verifier's soak / fault-injection battery (tests/verifier).
 *
 * Wraps any inner Transport and injects, under a seeded RNG:
 *  - short writes: send() passes only a random prefix to the inner
 *    transport, so the prover's retry loop and the service's partial-
 *    record reassembly both get exercised at every byte boundary;
 *  - torn reads: recv() caps the worker's read at a few bytes, tearing
 *    records (and, over sockets, frames) across service() calls;
 *  - mid-record disconnects: after a configured number of payload
 *    bytes, the stream is cut — the inner transport is closed and the
 *    remainder silently dropped, exactly like a prover dying mid-frame.
 *    (A socket seals once its pending frame is in the kernel; the
 *    session's closeSession() finishes that seal.)
 *
 * The decorator never reorders or corrupts bytes: everything it lets
 * through is a prefix of the true stream, so the expected verdict is
 * either the clean-run verdict (nothing dropped) or an honest
 * truncation — which is what the fault battery pins.
 *
 * Thread contract: send-side state is touched only by the prover
 * thread, recv-side state only by the worker holding the session (two
 * separate RNGs, no sharing).
 */

#ifndef REV_VERIFIER_FLAKY_HPP
#define REV_VERIFIER_FLAKY_HPP

#include <algorithm>
#include <memory>

#include "common/random.hpp"
#include "verifier/transport.hpp"

namespace rev::verifier
{

/** Fault-injection knobs (probabilities in [0,1]). */
struct FlakyOptions
{
    u64 seed = 1;
    double shortWriteProb = 0.25; ///< send() forwards a random prefix
    double tornReadProb = 0.25;   ///< recv() returns a 1..8-byte sliver
    u64 disconnectAfterBytes = 0; ///< >0: cut the stream at this offset
};

/** Fault-injecting decorator over any Transport. */
class FlakyTransport final : public Transport
{
  public:
    FlakyTransport(std::unique_ptr<Transport> inner, const FlakyOptions &opts)
        : inner_(std::move(inner)), opts_(opts), sendRng_(opts.seed),
          recvRng_(opts.seed ^ 0x5eed5eed5eed5eedULL)
    {
    }

    std::size_t
    send(const u8 *data, std::size_t n) override
    {
        if (disconnected_)
            return n; // the peer is gone; swallow so the prover finishes
        std::size_t cap = n;
        if (opts_.disconnectAfterBytes != 0) {
            const u64 left = opts_.disconnectAfterBytes - sentBytes_;
            if (left == 0) {
                disconnect();
                return n;
            }
            cap = std::min<std::size_t>(cap, static_cast<std::size_t>(left));
        }
        if (cap > 1 && sendRng_.chance(opts_.shortWriteProb))
            cap = 1 + static_cast<std::size_t>(sendRng_.below(cap));
        const std::size_t accepted = inner_->send(data, cap);
        sentBytes_ += accepted;
        if (opts_.disconnectAfterBytes != 0 &&
            sentBytes_ >= opts_.disconnectAfterBytes) {
            disconnect();
            return n; // the cut consumed the record mid-byte: swallow
        }
        return accepted;
    }

    /** Idempotent on the inner transport, so after a disconnect this
     *  finishes the seal the cut started. */
    bool closeSend() override { return inner_->closeSend(); }

    std::size_t
    recv(u8 *out, std::size_t max) override
    {
        std::size_t cap = max;
        if (cap > 1 && recvRng_.chance(opts_.tornReadProb))
            cap = 1 + static_cast<std::size_t>(recvRng_.below(8));
        return inner_->recv(out, std::min(cap, max));
    }

    std::size_t readable() const override { return inner_->readable(); }
    bool finished() const override { return inner_->finished(); }
    bool corrupt() const override { return inner_->corrupt(); }
    std::size_t peakBytes() const override { return inner_->peakBytes(); }

    u64 bytesDelivered() const { return sentBytes_; }
    bool disconnected() const { return disconnected_; }

  private:
    void
    disconnect()
    {
        disconnected_ = true;
        inner_->closeSend();
    }

    std::unique_ptr<Transport> inner_;
    const FlakyOptions opts_;
    Rng sendRng_;  ///< prover-thread state
    Rng recvRng_;  ///< worker-thread state (serialized by the session)
    u64 sentBytes_ = 0;
    bool disconnected_ = false;
};

} // namespace rev::verifier

#endif // REV_VERIFIER_FLAKY_HPP
