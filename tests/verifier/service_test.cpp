/**
 * @file
 * VerifierService scheduling / equivalence tests: memory and socket
 * sessions must render bit-identical verdicts, frames larger than the
 * socket buffer must arrive whole, dedup on/off must not change a
 * verdict, latched sessions must swallow (not livelock) further offers,
 * the ready queue must survive sessions opened mid-flight plus notify
 * storms from many prover threads, and sessions on many workers must
 * walk one RefStore's tables at once and still match inline.
 */

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "attacks/injector.hpp"
#include "common/random.hpp"
#include "validate/stream_verifier.hpp"
#include "verifier/service.hpp"
#include "verifier_testutil.hpp"

namespace rev::verifier
{
namespace
{

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
    EXPECT_EQ(a.bufferSpills, b.bufferSpills);
    EXPECT_EQ(a.spillBytes, b.spillBytes);
    EXPECT_EQ(a.unattestedBlocks, b.unattestedBlocks);
    EXPECT_EQ(a.edgeViolations, b.edgeViolations);
}

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

/** Adjudicate both corpus streams through one service configuration
 *  and return the two verdicts (rev first). */
std::vector<validate::StreamVerdict>
runBoth(const ServiceOptions &opts, TransportKind kind,
        std::size_t ringBytes)
{
    const test::Corpus &c = test::corpus();
    VerifierService svc(opts);
    const u64 a = svc.openSession(*c.refs, kind, ringBytes);
    const u64 b = svc.openSession(*c.refs, kind, ringBytes);
    pump(svc, a, c.rev.stream, 911);
    pump(svc, b, c.lofat.stream, 911);
    svc.drain();
    const std::vector<SessionReport> reports = svc.reports();
    return {reports[a].verdict, reports[b].verdict};
}

TEST(VerifierService, VerdictsMatchInlineGoldensOverMemory)
{
    const test::Corpus &c = test::corpus();
    const std::vector<validate::StreamVerdict> got =
        runBoth(ServiceOptions{1, 1u << 16}, TransportKind::Memory, 1u << 16);

    EXPECT_TRUE(got[0].complete);
    EXPECT_EQ(got[0].detected, c.rev.detected);
    EXPECT_EQ(got[0].reason, c.rev.reason);
    EXPECT_EQ(got[0].bbValidated, c.rev.bbValidated);
    EXPECT_TRUE(got[1].complete);
    EXPECT_EQ(got[1].detected, c.lofat.detected);
    EXPECT_EQ(got[1].reason, c.lofat.reason);
    EXPECT_EQ(got[1].bbValidated, c.lofat.bbValidated);
}

#if defined(__unix__) || defined(__APPLE__)

TEST(VerifierService, SocketAndMemorySessionsRenderIdenticalVerdicts)
{
    const std::vector<validate::StreamVerdict> mem =
        runBoth(ServiceOptions{2, 1u << 16}, TransportKind::Memory,
                1u << 14);
    const std::vector<validate::StreamVerdict> sock =
        runBoth(ServiceOptions{2, 1u << 16}, TransportKind::Socket,
                1u << 14);
    expectSameVerdict(mem[0], sock[0]);
    expectSameVerdict(mem[1], sock[1]);
}

TEST(VerifierService, FramesLargerThanTheSocketBufferArriveWhole)
{
    // Full streams offered 64 KiB at a time into 4 KiB sockets: the
    // frames outgrow the kernel buffer, so each one's tail stays with
    // the prover. Offers that accept nothing must still schedule a pass
    // (they may have flushed part of that tail), and closeSession()
    // must push the last tail through before sealing — otherwise the
    // prover spins forever or the verdict reads as a truncation. The
    // odd-sized piece goes first so the last frame is a full 64 KiB.
    const test::Corpus &c = test::corpus();
    const test::CapturedStream streams[2] = {
        test::captureOne(c.program, c.store.get(), validate::Backend::Rev,
                         120000),
        test::captureOne(c.program, c.store.get(),
                         validate::Backend::LoFat, 120000)};
    for (const test::CapturedStream &cap : streams)
        ASSERT_GT(cap.stream.size(), 2 * kMaxFramePayload);

    VerifierService svc(ServiceOptions{2, 1u << 16});
    std::vector<u64> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(
            svc.openSession(*c.refs, TransportKind::Socket, 1u << 12));
    std::vector<std::thread> provers;
    for (std::size_t i = 0; i < ids.size(); ++i)
        provers.emplace_back([&, i] {
            const std::vector<u8> &stream = streams[i % 2].stream;
            std::size_t off = 0;
            std::size_t want = stream.size() % kMaxFramePayload;
            while (off < stream.size()) {
                if (want == 0)
                    want = kMaxFramePayload;
                const std::size_t took =
                    svc.offer(ids[i], stream.data() + off, want);
                off += took;
                want -= took;
                if (took == 0)
                    std::this_thread::yield();
            }
            svc.closeSession(ids[i]);
        });
    for (std::thread &t : provers)
        t.join();
    svc.drain();

    const std::vector<SessionReport> reports = svc.reports();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const test::CapturedStream &cap = streams[i % 2];
        const SessionReport &r = reports[ids[i]];
        EXPECT_TRUE(r.verdict.complete);
        EXPECT_FALSE(r.verdict.detected) << r.verdict.reason;
        EXPECT_EQ(r.verdict.detected, cap.detected);
        EXPECT_EQ(r.verdict.reason, cap.reason);
        EXPECT_EQ(r.verdict.bbValidated, cap.bbValidated);
        EXPECT_EQ(r.bytes, cap.stream.size());
    }
}

TEST(VerifierService, RapidSocketCloseNeverRacesTeardown)
{
    // Tight close-vs-worker window: tiny streams make the worker's EOF
    // observation land while the prover is still inside closeSession().
    // The transport may only be retired after the prover publishes its
    // close, so under TSan this pins the teardown ordering.

    const test::Corpus &c = test::corpus();
    VerifierService svc(ServiceOptions{4, 1u << 16});

    std::vector<std::thread> provers;
    std::atomic<u64> closedOk{0};
    for (int p = 0; p < 4; ++p)
        provers.emplace_back([&] {
            for (int i = 0; i < 32; ++i) {
                const u64 id = svc.openSession(
                    *c.refs, TransportKind::Socket, 1u << 12);
                // A short prefix, then immediate close: the verdict is
                // honest truncation and the teardown races the close.
                const std::size_t n =
                    std::min<std::size_t>(c.rev.stream.size(), 96);
                std::size_t off = 0;
                while (off < n) {
                    const std::size_t took =
                        svc.offer(id, c.rev.stream.data() + off, n - off);
                    off += took;
                    if (took == 0)
                        std::this_thread::yield();
                }
                svc.closeSession(id);
                closedOk.fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (std::thread &t : provers)
        t.join();
    svc.drain();

    EXPECT_EQ(closedOk.load(), 128u);
    EXPECT_EQ(svc.sessionsAdjudicated(), 128u);
    for (const SessionReport &r : svc.reports())
        EXPECT_TRUE(r.verdict.complete);
}

#endif // __unix__ || __APPLE__

TEST(VerifierService, DedupOnOffVerdictsBitIdentical)
{
    const std::vector<validate::StreamVerdict> noDedup =
        runBoth(ServiceOptions{2, 0}, TransportKind::Memory, 1u << 16);
    const std::vector<validate::StreamVerdict> dedup =
        runBoth(ServiceOptions{2, 1u << 16}, TransportKind::Memory,
                1u << 16);
    expectSameVerdict(noDedup[0], dedup[0]);
    expectSameVerdict(noDedup[1], dedup[1]);
}

/**
 * Sessions the corpus never sends: a REV run caught returning to a
 * smashed address, a CFI-only run checked against CFI-only reference
 * tables, and a shadow-stack run. Through the service — over memory and
 * socket, with dedup on and off — each must reach the verdict the
 * backend rendered inline, so the service's rejecting and non-default
 * paths are covered, not only the passing Full-mode one.
 */
TEST(VerifierService, RejectingCfiAndShadowStackSessionsMatchInline)
{
    const test::Corpus &c = test::corpus();
    constexpr u64 kBudget = 5000;

    core::SimConfig rev;
    rev.core.maxInstrs = kBudget;
    rev.sigStorePrototype = c.store.get();
    // The first RET from instruction 2000 on returns to main's entry.
    const Addr entry = c.program.main().entry;
    bool fired = false;
    const test::CapturedStream attacked = test::captureRun(
        c.program, rev, [entry, &fired](core::Simulator &sim) {
            attacks::inject::onceAtReturn(
                sim, 2000,
                [entry](core::Simulator &s) {
                    attacks::inject::smashReturnAddress(s, entry);
                },
                fired);
        });
    ASSERT_TRUE(fired);
    ASSERT_TRUE(attacked.detected);

    core::SimConfig cfi = rev;
    cfi.mode = sig::ValidationMode::CfiOnly;
    sig::SigStore cfi_store(c.program, cfi.mode, *c.vault, cfi.toolchainSeed,
                            cfi.core.splitLimits, cfi.rev.chg.hashRounds);
    const validate::RefStore cfi_refs(cfi_store, c.vault.get());
    cfi.sigStorePrototype = &cfi_store;
    const test::CapturedStream cfi_only = test::captureRun(c.program, cfi);

    core::SimConfig shadow = rev;
    shadow.rev.returnValidation = validate::ReturnValidation::ShadowStack;
    const test::CapturedStream shadow_stack =
        test::captureRun(c.program, shadow);

    struct Case
    {
        const char *name;
        const test::CapturedStream &cap;
        const validate::RefStore &refs;
    };
    const Case cases[] = {{"attacked rev", attacked, *c.refs},
                          {"cfi-only", cfi_only, cfi_refs},
                          {"shadow stack", shadow_stack, *c.refs}};

    std::vector<TransportKind> kinds = {TransportKind::Memory};
#if defined(__unix__) || defined(__APPLE__)
    kinds.push_back(TransportKind::Socket);
#endif
    for (const TransportKind kind : kinds) {
        SCOPED_TRACE(kind == TransportKind::Memory ? "memory" : "socket");
        for (const std::size_t dedup : {std::size_t{0}, std::size_t{1} << 16}) {
            SCOPED_TRACE(dedup ? "dedup on" : "dedup off");
            VerifierService svc(ServiceOptions{2, dedup});
            std::vector<u64> ids;
            for (const Case &k : cases)
                ids.push_back(svc.openSession(k.refs, kind, 1u << 14));
            for (std::size_t i = 0; i < ids.size(); ++i)
                pump(svc, ids[i], cases[i].cap.stream, 911);
            svc.drain();

            const std::vector<SessionReport> reports = svc.reports();
            for (std::size_t i = 0; i < ids.size(); ++i) {
                SCOPED_TRACE(cases[i].name);
                const validate::StreamVerdict &v = reports[ids[i]].verdict;
                EXPECT_GT(cases[i].cap.bbValidated, 0u);
                EXPECT_TRUE(v.complete);
                EXPECT_EQ(v.detected, cases[i].cap.detected);
                EXPECT_EQ(v.reason, cases[i].cap.reason);
                EXPECT_EQ(v.bbValidated, cases[i].cap.bbValidated);
            }
        }
    }
}

TEST(VerifierService, LatchedSessionSwallowsOffersWithoutLivelock)
{
    // Garbage latches a malformed verdict at the header; the prover
    // must still be able to push its remaining bytes to completion.
    const test::Corpus &c = test::corpus();
    VerifierService svc(ServiceOptions{1, 1u << 16});
    const u64 id = svc.openSession(*c.refs, TransportKind::Memory, 4096);

    std::vector<u8> garbage(64 * 1024);
    Rng rng(99);
    for (u8 &b : garbage)
        b = static_cast<u8>(rng.below(256));
    // 16x the ring capacity: only the swallow path lets this finish.
    pump(svc, id, garbage, 1024);
    svc.drain();

    const SessionReport r = svc.reports()[id];
    EXPECT_TRUE(r.verdict.complete);
    EXPECT_TRUE(r.verdict.detected);
    EXPECT_LE(r.bytes, garbage.size());
}

TEST(VerifierService, SessionsOpenWhileOthersAreMidFlight)
{
    const test::Corpus &c = test::corpus();
    VerifierService svc(ServiceOptions{2, 1u << 16});

    // Wave one starts and feeds slowly; wave two opens concurrently.
    std::vector<std::thread> provers;
    for (int i = 0; i < 4; ++i)
        provers.emplace_back([&] {
            const u64 id =
                svc.openSession(*c.refs, TransportKind::Memory, 2048);
            pump(svc, id, c.rev.stream, 257);
        });
    for (int i = 0; i < 4; ++i)
        provers.emplace_back([&] {
            const u64 id =
                svc.openSession(*c.refs, TransportKind::Memory, 2048);
            pump(svc, id, c.lofat.stream, 257);
        });
    for (std::thread &t : provers)
        t.join();
    svc.drain();

    EXPECT_EQ(svc.sessionsOpened(), 8u);
    EXPECT_EQ(svc.sessionsAdjudicated(), 8u);
    for (const SessionReport &r : svc.reports()) {
        EXPECT_TRUE(r.verdict.complete);
        EXPECT_FALSE(r.verdict.detected);
        EXPECT_GT(r.peakBytes, 0u);
    }
}

TEST(VerifierService, NotifyStormFromManyProversStaysCorrect)
{
    // Many provers, tiny chunks, tiny rings: the doorbell path sees
    // constant wakeups in arbitrary order, with sessions re-queued
    // while workers hold them. Verdicts must all match the goldens.
    const test::Corpus &c = test::corpus();
    VerifierService svc(ServiceOptions{2, 1u << 16});

    std::vector<std::thread> provers;
    std::vector<u64> ids(8);
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = svc.openSession(*c.refs, TransportKind::Memory, 1024);
    for (std::size_t i = 0; i < ids.size(); ++i)
        provers.emplace_back([&, i] {
            const test::CapturedStream &cap = (i % 2) ? c.lofat : c.rev;
            pump(svc, ids[i], cap.stream, 61);
        });
    for (std::thread &t : provers)
        t.join();
    svc.drain();

    const std::vector<SessionReport> reports = svc.reports();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const test::CapturedStream &cap = (i % 2) ? c.lofat : c.rev;
        const validate::StreamVerdict &v = reports[ids[i]].verdict;
        EXPECT_TRUE(v.complete);
        EXPECT_EQ(v.detected, cap.detected);
        EXPECT_EQ(v.bbValidated, cap.bbValidated);
        // Tiny ring: occupancy may never exceed capacity.
        EXPECT_LE(reports[ids[i]].peakBytes, 1024u);
    }
}

TEST(VerifierService, ConcurrentTableWalksOnOneRefStoreMatchInline)
{
    // Dedup off, so no session borrows another's walk: four workers
    // adjudicate sixteen copies of one REV stream, and their lock-free
    // TableReader walks over the one RefStore overlap.
    const test::Corpus &c = test::corpus();
    VerifierService svc(ServiceOptions{4, 0});

    std::vector<u64> ids(16);
    for (u64 &id : ids)
        id = svc.openSession(*c.refs, TransportKind::Memory, 1u << 16);
    std::vector<std::thread> provers;
    for (std::size_t p = 0; p < 4; ++p)
        provers.emplace_back([&, p] {
            for (std::size_t i = p; i < ids.size(); i += 4)
                pump(svc, ids[i], c.rev.stream, 1u << 16);
        });
    for (std::thread &t : provers)
        t.join();
    svc.drain();

    const std::vector<SessionReport> reports = svc.reports();
    for (const u64 id : ids) {
        const validate::StreamVerdict &v = reports[id].verdict;
        EXPECT_TRUE(v.complete);
        EXPECT_EQ(v.detected, c.rev.detected);
        EXPECT_EQ(v.reason, c.rev.reason);
        EXPECT_EQ(v.bbValidated, c.rev.bbValidated);
        EXPECT_EQ(reports[id].dedupHits, 0u);
    }
}

} // namespace
} // namespace rev::verifier
