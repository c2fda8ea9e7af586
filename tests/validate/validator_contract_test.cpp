/**
 * @file
 * Contract tests for the pluggable validation-backend framework.
 *
 * A mock core drives every registered backend with the same event stream
 * the real pipeline would produce — onBBFetched / commitReadyAt /
 * validateBB per dynamic basic block, derived by walking the program's
 * own reference CFG — and checks the invariants the Simulator relies on:
 * commit gating never travels back in time, a legitimate execution never
 * raises a violation, syscall services 1/2 suspend and resume validation,
 * and the stats surface (commonStats / resetStats / snapshotStats) is
 * coherent. Backend-specific detection behaviour (REV hash mismatches and
 * delayed return validation, LO-FAT edge checks, chain divergence and
 * measurement-buffer spills) is covered afterwards, along with the
 * registry and the claimed-coverage matrix the red-team oracle consumes.
 */

#include "validate/registry.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/keyvault.hpp"
#include "isa/opcodes.hpp"
#include "mem/memsys.hpp"
#include "program/cfg.hpp"
#include "sig/sigstore.hpp"
#include "testutil.hpp"
#include "validate/coverage.hpp"

namespace rev::validate
{
namespace
{

/** One dynamic basic block as the mock core reports it. */
struct BBEvent
{
    BBFetchInfo info;
    Addr actualTarget = 0;
};

/**
 * A backend under a mock core: the real program / signature store /
 * memory hierarchy, but events are injected directly instead of coming
 * from the pipeline.
 */
class Harness
{
  public:
    explicit Harness(Backend kind,
                     sig::ValidationMode mode = sig::ValidationMode::Full,
                     RevConfig rev = {}, LoFatConfig lofat = {})
        : program_(rev::test::makeLoopCallProgram()), vault_(1),
          store_(program_, mode, vault_, /*seed=*/1, prog::SplitLimits{},
                 /*hash_rounds=*/5)
    {
        program_.loadInto(mem_);
        store_.loadInto(mem_);
        BackendContext ctx;
        ctx.store = &store_;
        ctx.vault = &vault_;
        ctx.mem = &mem_;
        ctx.memsys = &memsys_;
        ctx.rev = rev;
        ctx.lofat = lofat;
        validator_ = ValidatorRegistry::instance().create(kind, ctx);
    }

    Validator &v() { return *validator_; }
    SparseMemory &mem() { return mem_; }
    const prog::Cfg &cfg() const { return *store_.moduleSigs()[0].cfg; }
    Addr entry() const { return program_.entry(); }

    /**
     * The event stream of one legitimate execution: walk the reference
     * CFG from the entry point, preferring the fall-through edge (so
     * loops exit) and otherwise the first successor that is a valid
     * entry, until the Halt block.
     */
    std::vector<BBEvent>
    canonicalStream() const
    {
        std::vector<BBEvent> events;
        const prog::Cfg &c = cfg();
        const prog::BasicBlock *b = c.blockAtStart(entry());
        BBSeq seq = 1;
        Cycle cycle = 10;
        while (b) {
            BBEvent ev;
            ev.info.bbSeq = seq;
            ev.info.start = b->start;
            ev.info.term = b->term;
            ev.info.end = b->end;
            ev.info.termClass = isa::opcodeClass(
                static_cast<isa::Opcode>(mem_.read8(b->term)));
            ev.info.artificialSplit = b->kind == prog::TermKind::Split;
            ev.info.termSeq = seq * 100;
            ev.info.fetchDoneAt = cycle;

            const prog::BasicBlock *next = nullptr;
            if (b->kind == prog::TermKind::Halt) {
                ev.actualTarget = b->end;
            } else {
                Addr target = 0;
                for (Addr s : b->succs)
                    if (s == b->end)
                        target = s; // fall through: escapes the loop
                if (!target)
                    for (Addr s : b->succs)
                        if (c.blockAtStart(s)) {
                            target = s;
                            break;
                        }
                ev.actualTarget = target;
                next = c.blockAtStart(target);
            }
            ev.info.nextStart = ev.actualTarget;
            events.push_back(ev);
            ++seq;
            cycle += 20;
            if (b->kind == prog::TermKind::Halt)
                break;
            b = next;
        }
        return events;
    }

    /**
     * Feed @p events through the backend the way the core would, checking
     * the gating invariant, and return the number of validateBB failures
     * (collecting each failure's reason into @p reasons).
     */
    u64
    drive(const std::vector<BBEvent> &events,
          std::vector<std::string> *reasons = nullptr)
    {
        u64 failures = 0;
        for (const BBEvent &ev : events) {
            validator_->onBBFetched(ev.info);
            const Cycle earliest = ev.info.fetchDoneAt + 8;
            const Cycle ready = validator_->commitReadyAt(ev.info.bbSeq,
                                                          earliest);
            EXPECT_GE(ready, earliest) << "commit gated into the past";
            if (!validator_->validateBB(ev.info.bbSeq, ev.actualTarget,
                                        ready)) {
                ++failures;
                if (reasons)
                    reasons->push_back(validator_->violationReason());
            }
        }
        return failures;
    }

  private:
    prog::Program program_;
    crypto::KeyVault vault_;
    SparseMemory mem_;
    mem::MemorySystem memsys_;
    sig::SigStore store_;
    std::unique_ptr<Validator> validator_;
};

/** @p events with the first conditional branch redirected to @p target. */
std::vector<BBEvent>
withHijackedBranch(std::vector<BBEvent> events, Addr target)
{
    for (BBEvent &ev : events)
        if (ev.info.termClass == isa::InstrClass::Branch) {
            ev.actualTarget = target;
            ev.info.nextStart = target;
            break;
        }
    return events;
}

bool
contains(const std::string &s, const std::string &needle)
{
    return s.find(needle) != std::string::npos;
}

std::vector<Backend>
allBackends()
{
    std::vector<Backend> kinds;
    for (const BackendInfo &info : ValidatorRegistry::instance().list())
        kinds.push_back(info.kind);
    return kinds;
}

// --- uniform contract, every registered backend -------------------------

TEST(ValidatorContract, CanonicalStreamPassesCleanly)
{
    for (Backend kind : allBackends()) {
        SCOPED_TRACE(backendName(kind));
        Harness h(kind);
        const std::vector<BBEvent> events = h.canonicalStream();
        ASSERT_GE(events.size(), 4u); // loop, call, return, halt blocks
        EXPECT_EQ(h.drive(events), 0u);
        const ValidationStats st = h.v().commonStats();
        EXPECT_EQ(st.violations, 0u);
        if (h.v().validationActive())
            EXPECT_EQ(st.bbValidated, events.size());
        else
            EXPECT_EQ(st.bbValidated, 0u);
    }
}

TEST(ValidatorContract, UnknownBlockCommitsUngated)
{
    for (Backend kind : allBackends()) {
        SCOPED_TRACE(backendName(kind));
        Harness h(kind);
        // No onBBFetched happened: the backend must not gate or fail.
        EXPECT_EQ(h.v().commitReadyAt(/*bb=*/9999, /*earliest=*/42), 42u);
        EXPECT_TRUE(h.v().validateBB(/*bb=*/9999, /*actual_target=*/0x1234,
                                     /*commit_cycle=*/50));
    }
}

TEST(ValidatorContract, SyscallServicesSuspendAndResume)
{
    for (Backend kind : allBackends()) {
        SCOPED_TRACE(backendName(kind));
        Harness h(kind);
        const bool active = h.v().validationActive();

        h.v().onSyscall(/*service=*/1, /*commit_cycle=*/5);
        EXPECT_FALSE(h.v().validationActive());
        // While suspended even a hijacked stream must pass silently.
        EXPECT_EQ(h.drive(withHijackedBranch(h.canonicalStream(), 0xDEAD00)),
                  0u);
        EXPECT_EQ(h.v().commonStats().violations, 0u);

        h.v().onSyscall(/*service=*/2, /*commit_cycle=*/500);
        EXPECT_EQ(h.v().validationActive(), active);
        EXPECT_EQ(h.drive(h.canonicalStream()), 0u);
    }
}

TEST(ValidatorContract, ResetStatsZeroesTheCommonSlice)
{
    for (Backend kind : allBackends()) {
        SCOPED_TRACE(backendName(kind));
        Harness h(kind);
        h.drive(h.canonicalStream());
        h.v().resetStats();
        const ValidationStats st = h.v().commonStats();
        EXPECT_EQ(st.bbValidated, 0u);
        EXPECT_EQ(st.violations, 0u);
        EXPECT_EQ(st.commitStallCycles, 0u);
    }
}

TEST(ValidatorContract, SnapshotRowsCarryThePrefix)
{
    for (Backend kind : allBackends()) {
        SCOPED_TRACE(backendName(kind));
        Harness h(kind);
        h.drive(h.canonicalStream());
        stats::StatSet set;
        h.v().snapshotStats(set, "sim0");
        if (h.v().validationActive()) {
            EXPECT_GT(set.size(), 0u);
        }
        for (const auto &[name, value] : set.rows())
            EXPECT_EQ(name.rfind("sim0.", 0), 0u) << name;
    }
}

// --- registry and naming -------------------------------------------------

TEST(ValidatorRegistryTest, ListsBuiltinsInCanonicalOrder)
{
    const auto &infos = ValidatorRegistry::instance().list();
    ASSERT_GE(infos.size(), 3u);
    EXPECT_STREQ(infos[0].name, "rev");
    EXPECT_STREQ(infos[1].name, "lofat");
    EXPECT_STREQ(infos[2].name, "null");
    EXPECT_TRUE(infos[0].needsTables);
    EXPECT_TRUE(infos[1].needsTables);
    EXPECT_FALSE(infos[2].needsTables);
    for (const BackendInfo &info : infos) {
        EXPECT_NE(ValidatorRegistry::instance().find(info.kind), nullptr);
        EXPECT_NE(info.summary[0], '\0');
    }
}

TEST(ValidatorRegistryTest, CreatedValidatorsReportTheirKind)
{
    for (Backend kind : allBackends()) {
        Harness h(kind);
        EXPECT_EQ(h.v().kind(), kind);
    }
}

TEST(ValidatorRegistryTest, BackendNamesRoundTrip)
{
    for (Backend kind : allBackends()) {
        Backend parsed = Backend::Null;
        ASSERT_TRUE(backendFromName(backendName(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    Backend parsed = Backend::Null;
    EXPECT_FALSE(backendFromName("bogus", &parsed));
}

// --- claimed-coverage matrix --------------------------------------------

TEST(CoverageMatrix, MatchesTheDocumentedClaims)
{
    using sig::ValidationMode;
    const ValidationMode modes[] = {ValidationMode::Full,
                                    ValidationMode::Aggressive,
                                    ValidationMode::CfiOnly};
    for (ValidationMode m : modes) {
        // REV claims everything except substitution without hashes.
        EXPECT_EQ(backendClaims(Backend::Rev, TamperClass::CodeSubstitution,
                                m),
                  m != ValidationMode::CfiOnly);
        EXPECT_TRUE(
            backendClaims(Backend::Rev, TamperClass::ControlFlowHijack, m));
        EXPECT_TRUE(backendClaims(Backend::Rev, TamperClass::ForeignCode, m));
        EXPECT_TRUE(
            backendClaims(Backend::Rev, TamperClass::SignatureTamper, m));

        // LO-FAT's eager CFG check sees hijacks and foreign code only.
        EXPECT_TRUE(
            backendClaims(Backend::LoFat, TamperClass::ControlFlowHijack, m));
        EXPECT_TRUE(
            backendClaims(Backend::LoFat, TamperClass::ForeignCode, m));
        EXPECT_FALSE(
            backendClaims(Backend::LoFat, TamperClass::CodeSubstitution, m));
        EXPECT_FALSE(
            backendClaims(Backend::LoFat, TamperClass::SignatureTamper, m));

        for (TamperClass c :
             {TamperClass::CodeSubstitution, TamperClass::ControlFlowHijack,
              TamperClass::ForeignCode, TamperClass::SignatureTamper})
            EXPECT_FALSE(backendClaims(Backend::Null, c, m));
    }
}

// --- REV-specific detection ---------------------------------------------

TEST(RevBackend, DetectsInPlaceCodeSubstitution)
{
    Harness h(Backend::Rev);
    // Flip an operand byte inside the first block after the tables were
    // built: the CHG digest no longer matches the reference signature.
    const Addr victim = h.entry() + 1;
    h.mem().write8(victim, h.mem().read8(victim) ^ 0x40);
    h.v().invalidateCodeCache();

    std::vector<std::string> reasons;
    EXPECT_GE(h.drive(h.canonicalStream(), &reasons), 1u);
    ASSERT_FALSE(reasons.empty());
    EXPECT_TRUE(contains(reasons.front(), "hash mismatch"))
        << reasons.front();
}

TEST(RevBackend, DelayedReturnValidationCatchesReturnHijack)
{
    Harness h(Backend::Rev);
    std::vector<BBEvent> events = h.canonicalStream();
    // Redirect the return to the program entry (a valid block whose
    // predecessor list contains no RET), then report the entry block: the
    // delayed check of Sec. V.A fires on the block *after* the return.
    bool redirected = false;
    for (std::size_t i = 0; i + 1 < events.size(); ++i)
        if (events[i].info.termClass == isa::InstrClass::Return) {
            events[i].actualTarget = h.entry();
            events[i].info.nextStart = h.entry();
            BBEvent landing = events.front();
            landing.info.bbSeq = events[i].info.bbSeq + 1;
            landing.info.termSeq = events[i].info.termSeq + 1;
            landing.info.fetchDoneAt = events[i].info.fetchDoneAt + 20;
            events.resize(i + 1);
            events.push_back(landing);
            redirected = true;
            break;
        }
    ASSERT_TRUE(redirected);

    std::vector<std::string> reasons;
    EXPECT_EQ(h.drive(events, &reasons), 1u);
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_TRUE(contains(reasons.front(), "return from")) << reasons.front();
}

TEST(RevBackend, ForeignCodeHasNoReferenceSignature)
{
    Harness h(Backend::Rev);
    BBEvent ev;
    ev.info.bbSeq = 1;
    ev.info.start = 0x50000000; // outside every registered module
    ev.info.term = 0x50000010;
    ev.info.end = 0x50000011;
    ev.info.termClass = isa::InstrClass::Jump;
    ev.info.termSeq = 1;
    ev.info.fetchDoneAt = 10;
    ev.info.nextStart = ev.actualTarget = h.entry();

    std::vector<std::string> reasons;
    EXPECT_EQ(h.drive({ev}, &reasons), 1u);
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_TRUE(contains(reasons.front(), "no reference signature"))
        << reasons.front();
}

// --- LO-FAT-specific detection ------------------------------------------

TEST(LoFatBackend, RejectsEdgesAbsentFromTheAttestedCfg)
{
    Harness h(Backend::LoFat);
    std::vector<std::string> reasons;
    EXPECT_GE(h.drive(withHijackedBranch(h.canonicalStream(), 0xDEAD00),
                      &reasons),
              1u);
    ASSERT_FALSE(reasons.empty());
    EXPECT_TRUE(contains(reasons.front(), "absent from attested CFG"))
        << reasons.front();
}

TEST(LoFatBackend, RejectsReturnsToUnattestedSites)
{
    Harness h(Backend::LoFat);
    std::vector<BBEvent> events = h.canonicalStream();
    bool redirected = false;
    for (BBEvent &ev : events)
        if (ev.info.termClass == isa::InstrClass::Return) {
            ev.actualTarget = 0xDEAD00;
            ev.info.nextStart = 0xDEAD00;
            redirected = true;
            break;
        }
    ASSERT_TRUE(redirected);

    std::vector<std::string> reasons;
    EXPECT_GE(h.drive(events, &reasons), 1u);
    ASSERT_FALSE(reasons.empty());
    EXPECT_TRUE(contains(reasons.front(), "not an attested return site"))
        << reasons.front();
}

TEST(LoFatBackend, FlagsUnattestedCode)
{
    Harness h(Backend::LoFat);
    BBEvent ev;
    ev.info.bbSeq = 1;
    ev.info.start = 0x50000000;
    ev.info.term = 0x50000010;
    ev.info.end = 0x50000011;
    ev.info.termClass = isa::InstrClass::Jump;
    ev.info.termSeq = 1;
    ev.info.fetchDoneAt = 10;
    ev.info.nextStart = ev.actualTarget = h.entry();

    std::vector<std::string> reasons;
    EXPECT_EQ(h.drive({ev}, &reasons), 1u);
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_TRUE(contains(reasons.front(), "unattested code"))
        << reasons.front();
}

TEST(LoFatBackend, MeasurementChainDivergesUnderSubstitution)
{
    // In-place substitution is outside LO-FAT's claimed coverage: both
    // runs pass, but the measurement chain a verifier would receive
    // differs — the detection is remote, not local.
    Harness clean(Backend::LoFat);
    Harness tampered(Backend::LoFat);
    const Addr victim = tampered.entry() + 1;
    tampered.mem().write8(victim, tampered.mem().read8(victim) ^ 0x40);

    EXPECT_EQ(clean.drive(clean.canonicalStream()), 0u);
    EXPECT_EQ(tampered.drive(tampered.canonicalStream()), 0u);

    auto &cv = static_cast<LoFatValidator &>(clean.v());
    auto &tv = static_cast<LoFatValidator &>(tampered.v());
    EXPECT_EQ(cv.stats().chainUpdates, tv.stats().chainUpdates);
    EXPECT_NE(cv.chain(), tv.chain());
}

TEST(LoFatBackend, FullMeasurementBufferSpillsThroughMemory)
{
    LoFatConfig small;
    small.bufferEntries = 2;
    Harness h(Backend::LoFat, sig::ValidationMode::Full, RevConfig{}, small);
    const std::vector<BBEvent> events = h.canonicalStream();
    ASSERT_EQ(h.drive(events), 0u);

    auto &lv = static_cast<LoFatValidator &>(h.v());
    EXPECT_EQ(lv.stats().chainUpdates, events.size());
    EXPECT_EQ(lv.stats().bufferSpills, events.size() / 2);
    EXPECT_EQ(lv.stats().spillBytes,
              lv.stats().bufferSpills * 2 * small.entryBytes);
    EXPECT_LT(lv.bufferUsed(), small.bufferEntries);
}

// --- null backend --------------------------------------------------------

TEST(NullBackend, AcceptsEverythingAndCountsNothing)
{
    Harness h(Backend::Null);
    EXPECT_FALSE(h.v().validationActive());
    EXPECT_EQ(h.drive(withHijackedBranch(h.canonicalStream(), 0xDEAD00)),
              0u);
    const ValidationStats st = h.v().commonStats();
    EXPECT_EQ(st.bbValidated, 0u);
    EXPECT_EQ(st.violations, 0u);
    EXPECT_EQ(st.commitStallCycles, 0u);
    EXPECT_TRUE(h.v().violationReason().empty());
}

} // namespace
} // namespace rev::validate
