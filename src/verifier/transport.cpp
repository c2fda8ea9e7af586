#include "verifier/transport.hpp"

#include <algorithm>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define REV_HAVE_SOCKETPAIR 1
#include <cerrno>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace rev::verifier
{

// ---------------------------------------------------------------------------
// FrameDecoder

void
FrameDecoder::encodeFrame(std::vector<u8> *out, const u8 *payload,
                          std::size_t n)
{
    while (n != 0) {
        const std::size_t take = std::min(n, kMaxFramePayload);
        const u32 len = static_cast<u32>(take);
        out->push_back(static_cast<u8>(len));
        out->push_back(static_cast<u8>(len >> 8));
        out->push_back(static_cast<u8>(len >> 16));
        out->push_back(static_cast<u8>(len >> 24));
        out->insert(out->end(), payload, payload + take);
        payload += take;
        n -= take;
    }
}

void
FrameDecoder::push(const u8 *data, std::size_t n)
{
    if (corrupt_)
        return; // poisoned: discard so the sender can never back us up
    raw_.insert(raw_.end(), data, data + n);
    parse();
    const std::size_t occ =
        (raw_.size() - rawOff_) + (payload_.size() - payloadOff_);
    peak_ = std::max(peak_, occ);
}

void
FrameDecoder::parse()
{
    for (;;) {
        const std::size_t avail = raw_.size() - rawOff_;
        if (need_ != 0) {
            const std::size_t run = std::min(need_, avail);
            payload_.insert(payload_.end(), raw_.begin() + rawOff_,
                            raw_.begin() + rawOff_ + run);
            rawOff_ += run;
            need_ -= run;
            if (need_ != 0)
                break; // frame continues in a later read
            continue;
        }
        if (avail < kFrameHeaderBytes)
            break;
        const u8 *p = raw_.data() + rawOff_;
        const u32 len = static_cast<u32>(p[0]) |
                        (static_cast<u32>(p[1]) << 8) |
                        (static_cast<u32>(p[2]) << 16) |
                        (static_cast<u32>(p[3]) << 24);
        if (len == 0 || len > kMaxFramePayload) {
            corrupt_ = true;
            raw_.clear();
            rawOff_ = 0;
            return;
        }
        rawOff_ += kFrameHeaderBytes;
        need_ = len;
    }
    if (rawOff_ > 4096) {
        raw_.erase(raw_.begin(),
                   raw_.begin() + static_cast<std::ptrdiff_t>(rawOff_));
        rawOff_ = 0;
    }
}

std::size_t
FrameDecoder::take(u8 *out, std::size_t max)
{
    const std::size_t n = std::min(max, payload_.size() - payloadOff_);
    if (n > 0) // an empty payload_ has a null data(), invalid for memcpy
        std::memcpy(out, payload_.data() + payloadOff_, n);
    payloadOff_ += n;
    if (payloadOff_ == payload_.size() || payloadOff_ > 64 * 1024) {
        payload_.erase(payload_.begin(),
                       payload_.begin() +
                           static_cast<std::ptrdiff_t>(payloadOff_));
        payloadOff_ = 0;
    }
    return n;
}

// ---------------------------------------------------------------------------
// SocketTransport

#if REV_HAVE_SOCKETPAIR

namespace
{

void
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

SocketTransport::SocketTransport(std::size_t bufBytes)
{
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        return; // valid() stays false; the service refuses the session
    wfd_ = fds[0];
    rfd_ = fds[1];
    setNonBlocking(wfd_);
    setNonBlocking(rfd_);
    // Size the kernel buffers to the requested back-pressure horizon
    // (the kernel clamps to its own minimum/maximum; advisory only).
    const int want = static_cast<int>(std::min<std::size_t>(
        bufBytes, static_cast<std::size_t>(1) << 20));
    setsockopt(wfd_, SOL_SOCKET, SO_SNDBUF, &want, sizeof(want));
    setsockopt(rfd_, SOL_SOCKET, SO_RCVBUF, &want, sizeof(want));
}

SocketTransport::~SocketTransport()
{
    if (wfd_ >= 0)
        close(wfd_);
    if (rfd_ >= 0)
        close(rfd_);
}

bool
SocketTransport::flushPending()
{
    while (pendingOff_ < pending_.size()) {
        const ssize_t w = ::send(wfd_, pending_.data() + pendingOff_,
                                 pending_.size() - pendingOff_,
#ifdef MSG_NOSIGNAL
                                 MSG_NOSIGNAL
#else
                                 0
#endif
        );
        if (w > 0) {
            pendingOff_ += static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        // Kernel buffer full: keep the frame remainder pending;
        // back-pressure reaches the caller as 0.
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return false;
        // Dead peer: nothing will ever drain the remainder, so drop it
        // (the verifier side sees a truncated stream) rather than make
        // the prover retry forever.
        break;
    }
    pending_.clear();
    pendingOff_ = 0;
    return true;
}

std::size_t
SocketTransport::send(const u8 *data, std::size_t n)
{
    if (sendClosed_ || wfd_ < 0 || n == 0)
        return 0;
    // At most one frame is ever buffered locally: a send() is accepted
    // only once the previous frame is fully inside the kernel, so local
    // buffering stays bounded by kFrameHeaderBytes + kMaxFramePayload.
    if (!flushPending())
        return 0;
    n = std::min(n, kMaxFramePayload);
    pending_.reserve(kFrameHeaderBytes + n);
    FrameDecoder::encodeFrame(&pending_, data, n);
    const std::size_t occ = pending_.size();
    std::size_t seen = peak_.load(std::memory_order_relaxed);
    while (occ > seen &&
           !peak_.compare_exchange_weak(seen, occ,
                                        std::memory_order_relaxed)) {
    }
    flushPending(); // best effort; remainder flushes on the next call
    return n;       // the frame is owned now: accepted in full
}

bool
SocketTransport::closeSend()
{
    if (wfd_ < 0 || shut_)
        return true;
    sendClosed_ = true;
    // Half-close only once the last frame is whole inside the kernel:
    // an early SHUT_WR would cut it. The kernel takes the remainder as
    // the verifier side drains, so the caller retries after scheduling
    // a read (the service's close loop does exactly that).
    if (!flushPending())
        return false;
    shutdown(wfd_, SHUT_WR);
    shut_ = true;
    return true;
}

std::size_t
SocketTransport::recv(u8 *out, std::size_t max)
{
    if (rfd_ < 0)
        return 0;
    for (;;) {
        const std::size_t got = rx_.take(out, max);
        if (got != 0) {
            const std::size_t occ = rx_.pending();
            std::size_t seen = peak_.load(std::memory_order_relaxed);
            while (occ > seen && !peak_.compare_exchange_weak(
                                     seen, occ, std::memory_order_relaxed)) {
            }
            return got;
        }
        if (eof_)
            return 0;
        u8 buf[8192];
        const ssize_t r = ::recv(rfd_, buf, sizeof(buf), 0);
        if (r > 0) {
            // push() discards after corruption, so a poisoned session
            // keeps draining its prover without growing memory.
            rx_.push(buf, static_cast<std::size_t>(r));
            const std::size_t occ = rx_.peakBuffered();
            std::size_t seen = peak_.load(std::memory_order_relaxed);
            while (occ > seen && !peak_.compare_exchange_weak(
                                     seen, occ, std::memory_order_relaxed)) {
            }
            continue; // keep draining the socket dry this pass
        }
        if (r == 0) {
            eof_ = true;
            rx_.markEof();
            continue; // serve whatever decoded bytes remain
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return 0;
        // Connection error: treat as a disconnect.
        eof_ = true;
        rx_.markEof();
        return 0;
    }
}

bool
SocketTransport::finished() const
{
    return eof_ && rx_.pending() == 0;
}

std::size_t
SocketTransport::peakBytes() const
{
    return peak_.load(std::memory_order_relaxed);
}

#else // !REV_HAVE_SOCKETPAIR

SocketTransport::SocketTransport(std::size_t) {}
SocketTransport::~SocketTransport() = default;
bool SocketTransport::flushPending() { return true; }
std::size_t SocketTransport::send(const u8 *, std::size_t) { return 0; }
bool SocketTransport::closeSend() { return true; }
std::size_t SocketTransport::recv(u8 *, std::size_t) { return 0; }
bool SocketTransport::finished() const { return true; }
std::size_t SocketTransport::peakBytes() const { return 0; }

#endif // REV_HAVE_SOCKETPAIR

} // namespace rev::verifier
