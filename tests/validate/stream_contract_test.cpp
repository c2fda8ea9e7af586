/**
 * @file
 * The attestation-split equivalence contract: for every sweep config and
 * every measuring backend, the verdict a standalone StreamVerifier
 * renders from the serialized measurement session must be bit-identical
 * to what the in-core backend rendered inline — same Detected/Benign
 * outcome, same violation-reason string, same architectural counters.
 * The attacked half arms one tamper per run (a return-address smash, a
 * class-changing one-bit code flip, a one-bit flip of a direct jump's or
 * call's target) so the comparison also covers every rule branch that
 * rejects a block, not only the passing path.
 * Also pins the execute-once/time-many invariant on the wire: a run that
 * replays a recorded trace emits byte-for-byte the same session as the
 * direct run it replaces, so REV_TRACE_REPLAY can never change a
 * verifier-side verdict.
 */

#include <functional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "attacks/injector.hpp"
#include "bench/suite.hpp"
#include "core/simulator.hpp"
#include "isa/codec.hpp"
#include "program/trace.hpp"
#include "validate/refstore.hpp"
#include "validate/stream.hpp"
#include "validate/stream_verifier.hpp"
#include "workloads/generator.hpp"
#include "workloads/profile.hpp"

namespace rev::validate
{
namespace
{

constexpr u64 kBudget = 20000;
constexpr const char *kBench = "bzip2";

struct Captured
{
    std::vector<u8> stream;
    bool fired = false; ///< the armed tamper (if any) went off
    bool detected = false;
    std::string reason;
    ValidationStats validation;
    LoFatStats lofat;
};

/** Installs a tamper hook on a freshly built simulator; the hook sets
 *  the flag when it fires. */
using Arm = std::function<void(core::Simulator &, bool &fired)>;

/** One simulated run with the measurement sink attached. */
Captured
capture(const prog::Program &program, core::SimConfig cfg,
        const prog::Trace *replay, const Arm &arm = {})
{
    StreamWriter writer;
    cfg.measurementSink = &writer;
    cfg.replayTrace = replay;
    core::Simulator sim(program, cfg);
    bool fired = false;
    if (arm)
        arm(sim, fired);
    const core::SimResult res = sim.run();
    sim.validator()->sealMeasurement(); // budget-exhausted runs don't halt

    Captured c;
    c.stream = writer.take();
    c.fired = fired;
    c.detected = res.run.violation.has_value();
    c.reason = sim.validator()->violationReason();
    c.validation = res.validation;
    c.lofat = res.lofat;
    return c;
}

/** Re-render @p c's session with a verifier over independently built
 *  reference material (the same fuses and seeds the simulated CPU and
 *  toolchain used). */
StreamVerdict
verify(const prog::Program &program, const core::SimConfig &cfg,
       const Captured &c)
{
    crypto::KeyVault vault(cfg.cpuSeed);
    sig::SigStore store(program, cfg.mode, vault, cfg.toolchainSeed,
                        cfg.core.splitLimits, cfg.rev.chg.hashRounds);
    RefStore refs(store, &vault);
    StreamVerifier verifier(refs);
    verifier.feed(c.stream.data(), c.stream.size());
    verifier.finish();
    return verifier.verdict();
}

void
expectSameCounters(const StreamVerdict &v, const Captured &c)
{
    EXPECT_EQ(v.bbValidated, c.validation.bbValidated);
    EXPECT_EQ(v.violations, c.validation.violations);
    EXPECT_EQ(v.chainUpdates, c.lofat.chainUpdates);
    EXPECT_EQ(v.bufferSpills, c.lofat.bufferSpills);
    EXPECT_EQ(v.spillBytes, c.lofat.spillBytes);
    EXPECT_EQ(v.unattestedBlocks, c.lofat.unattestedBlocks);
    EXPECT_EQ(v.edgeViolations, c.lofat.edgeViolations);
}

class StreamContract : public ::testing::TestWithParam<Backend>
{
};

TEST_P(StreamContract, SplitVerdictMatchesInlineAcrossAllConfigs)
{
    const Backend backend = GetParam();
    const prog::Program program =
        workloads::generateWorkload(workloads::specProfile(kBench));

    for (const bench::Config config : bench::kAllConfigs) {
        core::SimConfig cfg = bench::sweepSimConfig(config, kBudget);
        if (cfg.backend == Backend::Null)
            continue; // Base measures nothing: no session
        cfg.backend = backend;
        SCOPED_TRACE(bench::configName(config));

        const Captured c = capture(program, cfg, nullptr);
        ASSERT_FALSE(c.stream.empty());

        const StreamVerdict v = verify(program, cfg, c);
        EXPECT_TRUE(v.complete);
        EXPECT_EQ(v.detected, c.detected);
        EXPECT_EQ(v.reason, c.reason);
        expectSameCounters(v, c);
    }
}

/** Committed-instruction index every tamper fires at (or after). */
constexpr u64 kTamperAt = 3000;

/**
 * Flip the lowest bit of the instruction at @p pc whose flipped encoding
 * still decodes and passes @p wanted(original, flipped), so the run
 * reaches a validator verdict rather than a decode fault right there.
 */
void
flipBit(core::Simulator &sim, Addr pc,
        const std::function<bool(const isa::Instr &, const isa::Instr &)>
            &wanted)
{
    u8 bytes[16];
    sim.memory().readBytes(pc, bytes, sizeof(bytes));
    const auto ins = isa::decode(bytes, sizeof(bytes));
    ASSERT_TRUE(ins.has_value());
    for (unsigned bit = 0; bit < ins->length() * 8; ++bit) {
        u8 flipped[sizeof(bytes)];
        std::copy(std::begin(bytes), std::end(bytes), flipped);
        flipped[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        const auto now = isa::decode(flipped, sizeof(flipped));
        if (now && wanted(*ins, *now)) {
            attacks::inject::tamperCode(sim, pc + bit / 8,
                                        &flipped[bit / 8], 1);
            return;
        }
    }
    FAIL() << "no suitable one-bit flip at " << pc;
}

/** The kind of block-level violation @p reason reports. */
std::string
reasonKind(const std::string &reason)
{
    for (const char *kind :
         {"hash mismatch", "return from", "illegal transfer",
          "violates shadow stack", "shadow stack underflow",
          "no reference", "unattested code", "not an attested return site",
          "absent from attested CFG"}) {
        if (reason.find(kind) != std::string::npos)
            return kind;
    }
    return reason;
}

TEST_P(StreamContract, SplitVerdictMatchesInlineOnAttackedRuns)
{
    namespace inject = attacks::inject;
    const Backend backend = GetParam();
    const std::vector<ReturnValidation> schemes =
        backend == Backend::Rev
            ? std::vector{ReturnValidation::DelayedPredecessor,
                          ReturnValidation::ShadowStack}
            : std::vector{ReturnValidation::DelayedPredecessor};

    std::set<std::string> kinds;
    for (const char *bench : {"bzip2", "gobmk"}) {
        const prog::Program program =
            workloads::generateWorkload(workloads::specProfile(bench));
        const Addr entry = program.main().entry;
        const std::pair<const char *, Arm> tampers[] = {
            // The first RET at or after kTamperAt returns to main's entry.
            {"ret-smash",
             [entry](core::Simulator &sim, bool &fired) {
                 inject::onceAtReturn(
                     sim, kTamperAt,
                     [entry](core::Simulator &s) {
                         inject::smashReturnAddress(s, entry);
                     },
                     fired);
             }},
            // Instruction kTamperAt turns into one of another class.
            {"flip",
             [](core::Simulator &sim, bool &fired) {
                 inject::onceAtIndex(
                     sim, kTamperAt,
                     [](core::Simulator &s) {
                         flipBit(s, s.core().machine().pc(),
                                 [](const isa::Instr &was,
                                    const isa::Instr &now) {
                                     return now.klass() != was.klass();
                                 });
                     },
                     fired);
             }},
            // The first direct jump or call at or after kTamperAt gets
            // a different target: an edge outside the CFG.
            {"retarget",
             [](core::Simulator &sim, bool &fired) {
                 sim.core().setPreStepHook([&sim, &fired](u64 idx,
                                                          Addr pc) {
                     if (fired || idx < kTamperAt)
                         return;
                     const prog::Predecoded *p =
                         sim.core().machine().predecode(pc);
                     if (!p || (p->ins.klass() != isa::InstrClass::Jump &&
                                p->ins.klass() != isa::InstrClass::Call))
                         return;
                     fired = true;
                     flipBit(sim, pc,
                             [](const isa::Instr &was,
                                const isa::Instr &now) {
                                 return now.op == was.op &&
                                        now.imm != was.imm;
                             });
                 });
             }},
        };
        for (const auto &[tamper, arm] : tampers) {
            for (const bench::Config config : bench::kAllConfigs) {
                for (const ReturnValidation scheme : schemes) {
                    core::SimConfig cfg =
                        bench::sweepSimConfig(config, kBudget);
                    if (cfg.backend == Backend::Null)
                        continue;
                    cfg.backend = backend;
                    cfg.rev.returnValidation = scheme;
                    SCOPED_TRACE(std::string(bench) + " " + tamper + " " +
                                 bench::configName(config) + " scheme " +
                                 std::to_string(static_cast<int>(scheme)));

                    const Captured c = capture(program, cfg, nullptr, arm);
                    ASSERT_FALSE(c.stream.empty());
                    EXPECT_TRUE(c.fired);
                    const StreamVerdict v = verify(program, cfg, c);
                    EXPECT_TRUE(v.complete);
                    // A validator verdict on one side only, or a differing
                    // one, is a split defect. A tamper that faults the core
                    // ("undecodable instruction bytes") leaves both empty.
                    EXPECT_EQ(v.detected, !c.reason.empty());
                    EXPECT_EQ(v.reason, c.reason);
                    expectSameCounters(v, c);
                    if (!c.reason.empty())
                        kinds.insert(reasonKind(c.reason));
                }
            }
        }
    }

    // The attacked runs must reach every rejecting branch the backend has
    // for these tampers, or the comparison above proves little.
    const std::set<std::string> want =
        backend == Backend::Rev
            ? std::set<std::string>{"hash mismatch", "no reference",
                                    "return from", "illegal transfer",
                                    "violates shadow stack"}
            : std::set<std::string>{"unattested code",
                                    "not an attested return site",
                                    "absent from attested CFG"};
    for (const std::string &kind : want)
        EXPECT_EQ(kinds.count(kind), 1u) << "no attacked run hit: " << kind;
}

TEST_P(StreamContract, ReplayEmitsIdenticalSession)
{
    const Backend backend = GetParam();
    const prog::Program program =
        workloads::generateWorkload(workloads::specProfile(kBench));

    // Record under a REV configuration (lowest drain watermark).
    core::SimConfig rc = bench::sweepSimConfig(bench::Config::Full32,
                                               kBudget);
    prog::TraceRecorder recorder;
    rc.traceRecorder = &recorder;
    core::Simulator rec(program, rc);
    rec.run();
    const prog::Trace trace = recorder.take();
    ASSERT_TRUE(trace.replayable());

    for (const bench::Config config : bench::kAllConfigs) {
        core::SimConfig cfg = bench::sweepSimConfig(config, kBudget);
        if (cfg.backend == Backend::Null)
            continue;
        cfg.backend = backend;
        SCOPED_TRACE(bench::configName(config));

        const Captured direct = capture(program, cfg, nullptr);
        const Captured replayed = capture(program, cfg, &trace);
        EXPECT_EQ(direct.stream, replayed.stream);
        EXPECT_EQ(direct.detected, replayed.detected);
        EXPECT_EQ(direct.reason, replayed.reason);
    }
}

TEST(StreamContractNull, BaseConfigEmitsNoSession)
{
    const prog::Program program =
        workloads::generateWorkload(workloads::specProfile(kBench));
    core::SimConfig cfg = bench::sweepSimConfig(bench::Config::Base,
                                                kBudget);
    const Captured c = capture(program, cfg, nullptr);
    EXPECT_TRUE(c.stream.empty()); // Null backend measures nothing
    EXPECT_FALSE(c.detected);
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamContract,
                         ::testing::Values(Backend::Rev, Backend::LoFat),
                         [](const auto &info) {
                             return std::string(backendName(info.param));
                         });

} // namespace
} // namespace rev::validate
