/**
 * @file
 * Table 1 reproduction: every attack class succeeds on the unprotected
 * machine, is detected by REV, and its tainted stores never reach memory.
 */

#include <gtest/gtest.h>

#include "attacks/attack.hpp"

namespace rev::attacks
{
namespace
{

using sig::ValidationMode;

core::SimConfig
cfgFor(ValidationMode mode, bool with_rev)
{
    core::SimConfig cfg;
    cfg.mode = mode;
    if (!with_rev)
        cfg.backend = validate::Backend::Null;
    return cfg;
}

struct Case
{
    std::size_t attackIdx;
    ValidationMode mode;
};

class Table1 : public ::testing::TestWithParam<Case>
{
};

TEST_P(Table1, AttackSucceedsWithoutRev)
{
    auto attacks = makeAllAttacks();
    Attack &atk = *attacks[GetParam().attackIdx];
    const AttackOutcome out =
        atk.execute(cfgFor(GetParam().mode, /*with_rev=*/false));
    EXPECT_TRUE(out.triggered) << atk.name();
    EXPECT_FALSE(out.detected) << atk.name();
    EXPECT_TRUE(out.succeeded) << atk.name() << ": attack had no effect";
}

TEST_P(Table1, RevDetectsAndContains)
{
    auto attacks = makeAllAttacks();
    Attack &atk = *attacks[GetParam().attackIdx];
    const ValidationMode mode = GetParam().mode;
    const AttackOutcome out = atk.execute(cfgFor(mode, /*with_rev=*/true));
    EXPECT_TRUE(out.triggered) << atk.name();
    if (atk.detectableIn(mode)) {
        EXPECT_TRUE(out.detected)
            << atk.name() << " undetected in mode "
            << sig::modeName(mode);
        EXPECT_FALSE(out.succeeded)
            << atk.name() << ": tainted state reached memory";
        EXPECT_FALSE(out.reason.empty());
    } else {
        // Documented blind spot (e.g., pure code substitution under
        // CFI-only validation).
        EXPECT_FALSE(out.detected);
    }
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    const auto n = makeAllAttacks().size();
    for (std::size_t i = 0; i < n; ++i)
        for (auto mode : {ValidationMode::Full, ValidationMode::Aggressive,
                          ValidationMode::CfiOnly})
            cases.push_back({i, mode});
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    auto attacks = makeAllAttacks();
    std::string name = attacks[info.param.attackIdx]->name();
    for (auto &c : name)
        if (c == '-')
            c = '_';
    switch (info.param.mode) {
      case ValidationMode::Full: name += "_Full"; break;
      case ValidationMode::Aggressive: name += "_Aggressive"; break;
      case ValidationMode::CfiOnly: name += "_CfiOnly"; break;
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllAttacksAllModes, Table1,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(Attacks, AllAttackClassesPresent)
{
    // Table 1's six rows plus the intro's illegal-dynamic-linking class.
    const auto attacks = makeAllAttacks();
    ASSERT_EQ(attacks.size(), 7u);
    for (const auto &atk : attacks) {
        EXPECT_STRNE(atk->name(), "");
        EXPECT_STRNE(atk->table1Mechanism(), "");
    }
}

TEST(Attacks, DetectabilityMatrixIsTaxonomyDriven)
{
    // Pin the full class x mode detectability matrix (Sec. V.D). Only
    // pure code substitution under CFI-only validation is blind: no
    // basic-block hashes are kept, and the control-flow shape is intact.
    using TC = TamperClass;
    using validate::Backend;
    using validate::backendClaims;
    const ValidationMode kModes[] = {ValidationMode::Full,
                                     ValidationMode::Aggressive,
                                     ValidationMode::CfiOnly};
    for (auto mode : kModes) {
        const bool hashed = mode != ValidationMode::CfiOnly;
        EXPECT_EQ(backendClaims(Backend::Rev, TC::CodeSubstitution, mode),
                  hashed)
            << sig::modeName(mode);
        EXPECT_TRUE(backendClaims(Backend::Rev, TC::ControlFlowHijack, mode))
            << sig::modeName(mode);
        EXPECT_TRUE(backendClaims(Backend::Rev, TC::ForeignCode, mode))
            << sig::modeName(mode);
        EXPECT_TRUE(backendClaims(Backend::Rev, TC::SignatureTamper, mode))
            << sig::modeName(mode);
    }
    // Every concrete attack's detectableIn() must follow its class —
    // there is no per-attack override path.
    for (const auto &atk : makeAllAttacks())
        for (auto mode : kModes)
            EXPECT_EQ(atk->detectableIn(mode),
                      backendClaims(Backend::Rev, atk->tamperClass(), mode))
                << atk->name() << " in " << sig::modeName(mode);
}

TEST(Attacks, OnlyDirectInjectionEvadesCfiOnly)
{
    const auto attacks = makeAllAttacks();
    int blind = 0;
    for (const auto &atk : attacks)
        blind += !atk->detectableIn(ValidationMode::CfiOnly);
    EXPECT_EQ(blind, 1);
}

} // namespace
} // namespace rev::attacks
