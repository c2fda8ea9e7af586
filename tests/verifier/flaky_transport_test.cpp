/**
 * @file
 * Fault-injection battery: FlakyTransport-wrapped sessions (torn reads,
 * short writes, mid-record disconnects) must render either the clean-run
 * verdict (nothing was actually dropped) or an honest truncation — and
 * the service must neither hang nor leak sessions. The ASan/TSan CI
 * jobs run this battery under their respective sanitizers.
 */

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "validate/stream_verifier.hpp"
#include "verifier/flaky.hpp"
#include "verifier/service.hpp"
#include "verifier_testutil.hpp"

namespace rev::verifier
{
namespace
{

/** Clean-run golden for @p cap rendered by a plain StreamVerifier. */
validate::StreamVerdict
cleanVerdict(const test::CapturedStream &cap)
{
    validate::StreamVerifier v(*test::corpus().refs);
    v.feed(cap.stream.data(), cap.stream.size());
    v.finish();
    return v.verdict();
}

void
expectSameVerdict(const validate::StreamVerdict &a,
                  const validate::StreamVerdict &b)
{
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.bbValidated, b.bbValidated);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.chainUpdates, b.chainUpdates);
    EXPECT_EQ(a.unattestedBlocks, b.unattestedBlocks);
    EXPECT_EQ(a.edgeViolations, b.edgeViolations);
}

/** Feed the whole stream through offer() with a retry loop (the
 *  prover's contract under back-pressure and short writes). */
void
pump(VerifierService &svc, u64 id, const std::vector<u8> &stream,
     std::size_t chunk)
{
    std::size_t off = 0;
    while (off < stream.size()) {
        const std::size_t want =
            std::min<std::size_t>(chunk, stream.size() - off);
        const std::size_t took = svc.offer(id, stream.data() + off, want);
        off += took;
        if (took == 0)
            std::this_thread::yield();
    }
    svc.closeSession(id);
}

TEST(FlakyTransport, TornReadsAndShortWritesOverRingsAreLossless)
{
    // Nothing is dropped by these faults — only re-chunked — so every
    // seed must land exactly on the clean-run verdict.
    const test::Corpus &c = test::corpus();
    VerifierService svc(ServiceOptions{2, 1u << 16});

    std::vector<u64> ids;
    std::vector<const test::CapturedStream *> caps;
    for (u64 seed = 1; seed <= 6; ++seed) {
        const test::CapturedStream &cap = (seed % 2) ? c.rev : c.lofat;
        FlakyOptions f;
        f.seed = seed;
        f.shortWriteProb = 0.5;
        f.tornReadProb = 0.5;
        // A small inner ring keeps back-pressure in play too.
        ids.push_back(svc.openSessionWith(
            *c.refs, std::make_unique<FlakyTransport>(
                         std::make_unique<RingTransport>(4096), f)));
        caps.push_back(&cap);
    }

    std::vector<std::thread> provers;
    for (std::size_t i = 0; i < ids.size(); ++i)
        provers.emplace_back(
            [&, i] { pump(svc, ids[i], caps[i]->stream, 777); });
    for (std::thread &t : provers)
        t.join();
    svc.drain();

    const std::vector<SessionReport> reports = svc.reports();
    ASSERT_EQ(reports.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        expectSameVerdict(reports[ids[i]].verdict, cleanVerdict(*caps[i]));
}

TEST(FlakyTransport, MidRecordDisconnectIsHonestTruncationNotAHang)
{
    const test::Corpus &c = test::corpus();
    const validate::StreamVerdict clean = cleanVerdict(c.rev);
    VerifierService svc(ServiceOptions{1, 1u << 16});

    // Cut at several offsets, including one byte short of complete.
    const std::vector<u64> cuts = {c.rev.stream.size() / 3,
                                   c.rev.stream.size() / 2,
                                   c.rev.stream.size() - 1};
    std::vector<u64> ids;
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        FlakyOptions f;
        f.seed = 100 + i;
        f.shortWriteProb = 0.3;
        f.tornReadProb = 0.3;
        f.disconnectAfterBytes = cuts[i];
        ids.push_back(svc.openSessionWith(
            *c.refs, std::make_unique<FlakyTransport>(
                         std::make_unique<RingTransport>(4096), f)));
    }

    // The prover must be able to finish feeding even though the peer
    // vanished mid-record (post-disconnect sends are swallowed).
    for (u64 id : ids)
        pump(svc, id, c.rev.stream, 777);
    svc.drain(); // the hang check: this must return

    const std::vector<SessionReport> reports = svc.reports();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const validate::StreamVerdict &v = reports[ids[i]].verdict;
        EXPECT_TRUE(v.complete); // adjudicated, not parked
        // A prefix of a clean stream: truncation is the only legal
        // complaint, and progress never exceeds the clean run.
        EXPECT_TRUE(v.detected);
        EXPECT_LE(v.bbValidated, clean.bbValidated);
        EXPECT_LE(reports[ids[i]].bytes, c.rev.stream.size());
    }
}

#if defined(__unix__) || defined(__APPLE__)

TEST(FlakyTransport, FaultsOverSocketsPreserveVerdicts)
{
    const test::Corpus &c = test::corpus();
    VerifierService svc(ServiceOptions{2, 1u << 16});

    std::vector<u64> ids;
    std::vector<const test::CapturedStream *> caps;
    for (u64 seed = 11; seed <= 14; ++seed) {
        const test::CapturedStream &cap = (seed % 2) ? c.rev : c.lofat;
        auto sock = std::make_unique<SocketTransport>(1u << 14);
        ASSERT_TRUE(sock->valid());
        FlakyOptions f;
        f.seed = seed;
        f.shortWriteProb = 0.5;
        f.tornReadProb = 0.5;
        ids.push_back(svc.openSessionWith(
            *c.refs,
            std::make_unique<FlakyTransport>(std::move(sock), f)));
        caps.push_back(&cap);
    }

    std::vector<std::thread> provers;
    for (std::size_t i = 0; i < ids.size(); ++i)
        provers.emplace_back(
            [&, i] { pump(svc, ids[i], caps[i]->stream, 777); });
    for (std::thread &t : provers)
        t.join();
    svc.drain();

    const std::vector<SessionReport> reports = svc.reports();
    for (std::size_t i = 0; i < ids.size(); ++i)
        expectSameVerdict(reports[ids[i]].verdict, cleanVerdict(*caps[i]));
}

TEST(FlakyTransport, SocketDisconnectMidFrameAdjudicates)
{
    const test::Corpus &c = test::corpus();
    VerifierService svc(ServiceOptions{1, 1u << 16});

    auto sock = std::make_unique<SocketTransport>(1u << 14);
    ASSERT_TRUE(sock->valid());
    FlakyOptions f;
    f.seed = 21;
    f.tornReadProb = 0.4;
    f.disconnectAfterBytes = c.lofat.stream.size() / 2;
    const u64 id = svc.openSessionWith(
        *c.refs, std::make_unique<FlakyTransport>(std::move(sock), f));

    pump(svc, id, c.lofat.stream, 777);
    svc.drain();

    const std::vector<SessionReport> reports = svc.reports();
    const validate::StreamVerdict &v = reports[id].verdict;
    EXPECT_TRUE(v.complete);
    EXPECT_TRUE(v.detected); // truncation: the torn tail is lost
    EXPECT_LE(v.bbValidated, cleanVerdict(c.lofat).bbValidated);
}

#endif // __unix__ || __APPLE__

} // namespace
} // namespace rev::verifier
