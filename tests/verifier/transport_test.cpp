/**
 * @file
 * Transport-layer contract tests: FrameDecoder totality (the framing
 * rules in transport.hpp), RingTransport equivalence with ByteRing,
 * and SocketTransport round-trips with backpressure, partial reads,
 * and mid-frame EOF.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "verifier/transport.hpp"

namespace rev::verifier
{
namespace
{

std::vector<u8>
pattern(std::size_t n, u8 seed = 0)
{
    std::vector<u8> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<u8>(seed + i * 73);
    return v;
}

std::vector<u8>
drainAll(FrameDecoder &d)
{
    std::vector<u8> out;
    u8 buf[257];
    for (std::size_t n; (n = d.take(buf, sizeof(buf))) != 0;)
        out.insert(out.end(), buf, buf + n);
    return out;
}

TEST(FrameDecoder, RoundTripsAcrossRandomSplitBoundaries)
{
    const std::vector<u8> payload = pattern(10000, 5);
    std::vector<u8> framed;
    // Many small frames, so splits land inside headers and payloads.
    for (std::size_t off = 0; off < payload.size(); off += 769)
        FrameDecoder::encodeFrame(
            &framed, payload.data() + off,
            std::min<std::size_t>(769, payload.size() - off));

    Rng rng(7);
    FrameDecoder d;
    std::vector<u8> got;
    std::size_t off = 0;
    while (off < framed.size()) {
        const std::size_t n = std::min<std::size_t>(
            1 + static_cast<std::size_t>(rng.below(13)),
            framed.size() - off);
        d.push(framed.data() + off, n);
        off += n;
        const std::vector<u8> piece = drainAll(d);
        got.insert(got.end(), piece.begin(), piece.end());
    }
    d.markEof();
    EXPECT_FALSE(d.corrupt());
    EXPECT_EQ(got, payload);
    EXPECT_EQ(d.pending(), 0u);
}

TEST(FrameDecoder, OversizedLengthPrefixMarksCorrupt)
{
    FrameDecoder d;
    const u32 bad = kMaxFramePayload + 1;
    u8 hdr[kFrameHeaderBytes];
    std::memcpy(hdr, &bad, sizeof(bad));
    d.push(hdr, sizeof(hdr));
    EXPECT_TRUE(d.corrupt());
    // Corrupt decoders discard further input instead of buffering it.
    const std::vector<u8> junk = pattern(4096);
    d.push(junk.data(), junk.size());
    EXPECT_EQ(d.pending(), 0u);
}

TEST(FrameDecoder, ZeroLengthPrefixMarksCorrupt)
{
    FrameDecoder d;
    const u8 zero[kFrameHeaderBytes] = {0, 0, 0, 0};
    d.push(zero, sizeof(zero));
    EXPECT_TRUE(d.corrupt());
}

TEST(FrameDecoder, DecodedPrefixSurvivesCorruptTail)
{
    std::vector<u8> framed;
    const std::vector<u8> good = pattern(100, 3);
    FrameDecoder::encodeFrame(&framed, good.data(), good.size());
    const u32 bad = 0;
    const std::size_t hdrAt = framed.size();
    framed.resize(framed.size() + kFrameHeaderBytes);
    std::memcpy(framed.data() + hdrAt, &bad, sizeof(bad));

    FrameDecoder d;
    d.push(framed.data(), framed.size());
    EXPECT_TRUE(d.corrupt());
    // The complete frame before the bad prefix still decodes.
    EXPECT_EQ(drainAll(d), good);
}

TEST(FrameDecoder, EofMidFrameIsTruncationNotCorruption)
{
    std::vector<u8> framed;
    const std::vector<u8> a = pattern(64, 1);
    const std::vector<u8> b = pattern(64, 2);
    FrameDecoder::encodeFrame(&framed, a.data(), a.size());
    FrameDecoder::encodeFrame(&framed, b.data(), b.size());

    FrameDecoder d;
    // Deliver everything except the last 10 payload bytes of frame b.
    d.push(framed.data(), framed.size() - 10);
    d.markEof();
    EXPECT_FALSE(d.corrupt());
    // Payload bytes stream out as they arrive: frame a stands in full,
    // frame b's received prefix stands, the torn tail is lost.
    std::vector<u8> expect = a;
    expect.insert(expect.end(), b.begin(), b.end() - 10);
    EXPECT_EQ(drainAll(d), expect);
}

TEST(FrameDecoder, EncodeSplitsPayloadsBeyondMaxFrame)
{
    const std::vector<u8> big = pattern(kMaxFramePayload + 1234, 9);
    std::vector<u8> framed;
    FrameDecoder::encodeFrame(&framed, big.data(), big.size());
    // Two frames: max-sized plus remainder.
    EXPECT_EQ(framed.size(), big.size() + 2 * kFrameHeaderBytes);

    FrameDecoder d;
    d.push(framed.data(), framed.size());
    EXPECT_FALSE(d.corrupt());
    EXPECT_EQ(drainAll(d), big);
}

TEST(RingTransport, FinishedOnlyAfterCloseAndFullDrain)
{
    RingTransport t(64);
    const std::vector<u8> data = pattern(10);
    EXPECT_EQ(t.send(data.data(), data.size()), 10u);
    EXPECT_FALSE(t.finished());
    t.closeSend();
    EXPECT_FALSE(t.finished()); // bytes still buffered
    u8 out[64];
    EXPECT_EQ(t.recv(out, sizeof(out)), 10u);
    EXPECT_TRUE(t.finished());
    EXPECT_FALSE(t.corrupt());
    EXPECT_EQ(t.peakBytes(), 10u);
}

#if defined(__unix__) || defined(__APPLE__)

std::vector<u8>
socketDrain(SocketTransport &t)
{
    std::vector<u8> out;
    u8 buf[512];
    for (;;) {
        const std::size_t n = t.recv(buf, sizeof(buf));
        if (n == 0)
            break;
        out.insert(out.end(), buf, buf + n);
    }
    return out;
}

TEST(SocketTransport, RoundTripsChunkedStream)
{
    SocketTransport t(1 << 16);
    ASSERT_TRUE(t.valid());

    const std::vector<u8> stream = pattern(5000, 4);
    std::vector<u8> got;
    std::size_t off = 0;
    while (off < stream.size()) {
        const std::size_t n = t.send(
            stream.data() + off,
            std::min<std::size_t>(333, stream.size() - off));
        off += n;
        const std::vector<u8> piece = socketDrain(t);
        got.insert(got.end(), piece.begin(), piece.end());
    }
    EXPECT_TRUE(t.closeSend());
    const std::vector<u8> rest = socketDrain(t);
    got.insert(got.end(), rest.begin(), rest.end());

    EXPECT_EQ(got, stream);
    EXPECT_TRUE(t.finished());
    EXPECT_FALSE(t.corrupt());
    EXPECT_GT(t.peakBytes(), 0u);
}

TEST(SocketTransport, BackpressuresWhenUnread)
{
    SocketTransport t(4096);
    ASSERT_TRUE(t.valid());
    const std::vector<u8> chunk = pattern(4096, 6);
    // Keep writing without draining: the kernel buffer plus the single
    // pending frame must eventually refuse further bytes instead of
    // queueing unboundedly.
    std::size_t total = 0;
    bool saturated = false;
    for (int i = 0; i < 4096; ++i) {
        const std::size_t n = t.send(chunk.data(), chunk.size());
        total += n;
        if (n == 0) {
            saturated = true;
            break;
        }
    }
    EXPECT_TRUE(saturated);

    // Draining the verifier side releases the backpressure.
    std::vector<u8> got = socketDrain(t);
    EXPECT_FALSE(got.empty());
    EXPECT_GT(t.send(chunk.data(), chunk.size()), 0u);
}

TEST(SocketTransport, CloseSendWaitsForTheReaderToTakeTheLastFrame)
{
    // A frame larger than the kernel buffer leaves its tail with the
    // prover. closeSend() may not seal (SHUT_WR) before that tail is in
    // the kernel, and never blocks: it reports false until a read makes
    // room.
    SocketTransport t(4096);
    ASSERT_TRUE(t.valid());
    const std::vector<u8> stream = pattern(kMaxFramePayload, 2);
    ASSERT_EQ(t.send(stream.data(), stream.size()), stream.size());
    EXPECT_FALSE(t.closeSend());
    EXPECT_EQ(t.send(stream.data(), 1), 0u); // closed: no more frames

    std::vector<u8> got;
    bool sealed = false;
    for (int i = 0; i < 100000 && !sealed; ++i) {
        const std::vector<u8> piece = socketDrain(t);
        got.insert(got.end(), piece.begin(), piece.end());
        sealed = t.closeSend();
    }
    ASSERT_TRUE(sealed);
    const std::vector<u8> rest = socketDrain(t);
    got.insert(got.end(), rest.begin(), rest.end());
    EXPECT_EQ(got, stream);
    EXPECT_TRUE(t.finished());
    EXPECT_TRUE(t.closeSend()); // idempotent once sealed
}

TEST(SocketTransport, EofMidStreamFinishesWithDecodedPrefix)
{
    SocketTransport t(1 << 16);
    ASSERT_TRUE(t.valid());
    const std::vector<u8> stream = pattern(1000, 8);
    ASSERT_EQ(t.send(stream.data(), stream.size()), stream.size());
    EXPECT_TRUE(t.closeSend());

    const std::vector<u8> got = socketDrain(t);
    EXPECT_EQ(got, stream);
    EXPECT_TRUE(t.finished());
}

#endif // __unix__ || __APPLE__

} // namespace
} // namespace rev::verifier
