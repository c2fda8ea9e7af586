/**
 * @file
 * Measurement-stream wire-format fuzzing: the prover/verifier codec of
 * the attestation split must be lossless on everything a
 * MeasurementSource can emit (header + events -> bytes -> same header +
 * events) and total on arbitrary input. Truncating a valid session at
 * ANY byte boundary must answer NeedMore — honest in-flight sessions
 * are never misread as garbage — and mutated bytes must never crash the
 * decoder or stall its progress.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "validate/stream.hpp"

namespace rev::validate
{
namespace
{

StreamHeader
randomHeader(Rng &rng)
{
    StreamHeader h;
    h.backend = static_cast<Backend>(rng.below(3));
    h.mode = static_cast<sig::ValidationMode>(rng.below(3));
    h.returnValidation = static_cast<u8>(rng.below(2));
    h.hashRounds = static_cast<u32>(rng.range(1, 16));
    h.bufferEntries = static_cast<u32>(rng.below(0x10000));
    h.entryBytes = static_cast<u32>(rng.below(0x10000));
    h.shadowStackEntries = static_cast<u32>(rng.below(0x10000));
    h.startEnabled = rng.chance(0.9);
    return h;
}

MeasurementEvent
randomEvent(Rng &rng)
{
    MeasurementEvent ev;
    switch (rng.below(16)) {
      case 0:
        ev.kind = EventKind::Syscall;
        ev.service = static_cast<u8>(rng.below(3));
        break;
      case 1:
        ev.kind = EventKind::SpillMark;
        ev.spillBytes = rng.below(1u << 20);
        break;
      default:
        ev.kind = EventKind::Block;
        ev.start = rng.next() >> rng.below(40);
        ev.term = ev.start + rng.below(256);
        ev.end = ev.term + rng.range(1, 8);
        // Half the blocks fall through (target elided on the wire).
        ev.target = rng.chance(0.5) ? ev.end : rng.next() >> rng.below(40);
        ev.termClass = static_cast<isa::InstrClass>(
            rng.below(static_cast<u64>(isa::InstrClass::Halt) + 1));
        ev.artificialSplit = rng.chance(0.2);
        ev.codeDigest = static_cast<u32>(rng.next());
        break;
    }
    return ev;
}

MeasurementEvent
randomEnd(Rng &rng, u64 blocks)
{
    MeasurementEvent ev;
    ev.kind = EventKind::End;
    ev.blockCount = blocks;
    ev.hasChain = rng.chance(0.5);
    if (ev.hasChain)
        for (u8 &b : ev.chain)
            b = static_cast<u8>(rng.next());
    return ev;
}

/** Encode a random but well-formed session; events returned via @p out. */
std::vector<u8>
randomSession(Rng &rng, StreamHeader *hdr, std::vector<MeasurementEvent> *out)
{
    StreamWriter w;
    *hdr = randomHeader(rng);
    w.onHeader(*hdr);
    out->clear();
    u64 blocks = 0;
    const u64 n = rng.below(64);
    for (u64 i = 0; i < n; ++i) {
        MeasurementEvent ev = randomEvent(rng);
        blocks += ev.kind == EventKind::Block;
        w.onEvent(ev);
        out->push_back(ev);
    }
    if (rng.chance(0.9)) {
        MeasurementEvent end = randomEnd(rng, blocks);
        w.onEvent(end);
        out->push_back(end);
    }
    return w.take();
}

class StreamFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(StreamFuzz, SessionsRoundTripLosslessly)
{
    Rng rng(GetParam());
    for (int t = 0; t < 500; ++t) {
        StreamHeader hdr;
        std::vector<MeasurementEvent> events;
        const std::vector<u8> bytes = randomSession(rng, &hdr, &events);

        StreamReader r;
        StreamHeader back;
        ASSERT_EQ(r.tryHeader(bytes.data(), bytes.size(), &back),
                  StreamReader::Status::Ok);
        ASSERT_EQ(back, hdr);
        for (const MeasurementEvent &want : events) {
            MeasurementEvent got;
            ASSERT_EQ(r.tryNext(bytes.data(), bytes.size(), &got),
                      StreamReader::Status::Ok);
            ASSERT_EQ(got, want);
        }
        MeasurementEvent extra;
        ASSERT_EQ(r.tryNext(bytes.data(), bytes.size(), &extra),
                  StreamReader::Status::NeedMore);
        ASSERT_EQ(r.offset(), bytes.size());
    }
}

TEST_P(StreamFuzz, TruncationAlwaysReadsAsNeedMore)
{
    Rng rng(GetParam());
    for (int t = 0; t < 100; ++t) {
        StreamHeader hdr;
        std::vector<MeasurementEvent> events;
        const std::vector<u8> bytes = randomSession(rng, &hdr, &events);
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            StreamReader r;
            StreamHeader h;
            StreamReader::Status st = r.tryHeader(bytes.data(), cut, &h);
            ASSERT_NE(st, StreamReader::Status::Malformed) << cut;
            if (st != StreamReader::Status::Ok)
                continue;
            MeasurementEvent ev;
            std::size_t prev = r.offset();
            while ((st = r.tryNext(bytes.data(), cut, &ev)) ==
                   StreamReader::Status::Ok) {
                ASSERT_GT(r.offset(), prev) << "decoder stalled";
                prev = r.offset();
            }
            ASSERT_EQ(st, StreamReader::Status::NeedMore) << cut;
        }
    }
}

TEST_P(StreamFuzz, DecoderIsTotalOnMutatedInput)
{
    Rng rng(GetParam());
    for (int t = 0; t < 500; ++t) {
        StreamHeader hdr;
        std::vector<MeasurementEvent> events;
        std::vector<u8> bytes = randomSession(rng, &hdr, &events);
        switch (rng.below(3)) {
          case 0: // corrupt bytes in place
            for (u64 i = rng.range(1, 16); i-- > 0 && !bytes.empty();)
                bytes[rng.below(bytes.size())] =
                    static_cast<u8>(rng.next());
            break;
          case 1: // splice a second session fragment on the end
            bytes.resize(rng.below(bytes.size() + 1));
            {
                StreamHeader h2;
                std::vector<MeasurementEvent> e2;
                const std::vector<u8> more = randomSession(rng, &h2, &e2);
                bytes.insert(bytes.end(), more.begin(), more.end());
            }
            break;
          case 2: // pure noise
            bytes.resize(rng.below(512));
            for (u8 &b : bytes)
                b = static_cast<u8>(rng.next());
            break;
        }
        // Must never crash and must always make progress or stop.
        StreamReader r;
        StreamHeader h;
        if (r.tryHeader(bytes.data(), bytes.size(), &h) !=
            StreamReader::Status::Ok)
            continue;
        MeasurementEvent ev;
        std::size_t prev = r.offset();
        StreamReader::Status st;
        while ((st = r.tryNext(bytes.data(), bytes.size(), &ev)) ==
               StreamReader::Status::Ok) {
            ASSERT_GT(r.offset(), prev) << "decoder stalled";
            prev = r.offset();
        }
        ASSERT_LE(r.offset(), bytes.size());
    }
}

TEST(StreamHeaderCodec, OutOfRangeHeaderBytesAreMalformed)
{
    StreamWriter w;
    w.onHeader(StreamHeader{});
    const std::vector<u8> good = w.take();
    ASSERT_EQ(good.size(), kStreamHeaderBytes);

    // Byte 6 is the backend, 7 the validation mode, 8 the return-
    // validation scheme, 16 the start-enabled flag.
    const std::pair<std::size_t, u8> cases[] = {
        {6, static_cast<u8>(Backend::Null) + 1},
        {7, static_cast<u8>(sig::ValidationMode::CfiOnly) + 1},
        {8, 2},
        {8, 255},
        {16, 2},
    };
    for (const auto &[at, value] : cases) {
        std::vector<u8> bytes = good;
        bytes[at] = value;
        StreamReader r;
        StreamHeader h;
        EXPECT_EQ(r.tryHeader(bytes.data(), bytes.size(), &h),
                  StreamReader::Status::Malformed)
            << "byte " << at << " = " << int(value);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzz, ::testing::Values(1, 2, 3, 4));

} // namespace
} // namespace rev::validate
