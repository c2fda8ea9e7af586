/**
 * @file
 * Self-modifying code vs. the validation pipeline. The simulator's decode
 * cache and CHG memo are invalidated by page versions, never manually, so
 * an in-program code patch must (a) raise a violation when REV is active,
 * (b) pass cleanly inside a syscall-bracketed trusted window (Sec. VII),
 * and (c) simply refetch the new bytes when REV is absent.
 */

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "smc_programs.hpp"
#include "testutil.hpp"

namespace rev::core
{
namespace
{

TEST(Smc, UnauthorizedPatchRaisesViolation)
{
    const MoviPatch patch = findMoviPatch();
    ASSERT_EQ(patch.diffs, 1u);
    auto p = makeSmcProgram(patch, /*trusted=*/false);
    SimConfig cfg;
    cfg.mode = sig::ValidationMode::Full;
    Simulator sim(p, cfg);
    const SimResult r = sim.run();
    // The patched doit block re-hashes to a digest the signed table does
    // not contain; even though the signature cache and the CHG memo hold
    // entries from the first (legitimate) execution.
    EXPECT_TRUE(r.run.violation.has_value());
    EXPECT_FALSE(r.run.halted);
    EXPECT_GE(r.rev.violations, 1u);
}

TEST(Smc, SyscallWindowPermitsPatch)
{
    const MoviPatch patch = findMoviPatch();
    ASSERT_EQ(patch.diffs, 1u);
    auto p = makeSmcProgram(patch, /*trusted=*/true);
    SimConfig cfg;
    cfg.mode = sig::ValidationMode::Full;
    Simulator sim(p, cfg);
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_FALSE(r.run.violation.has_value());
    // Both decodes took effect: 111 from the original bytes, 222 from the
    // patched bytes, with no manual code-cache invalidation.
    EXPECT_EQ(sim.core().machine().reg(5), 333u);
    EXPECT_EQ(sim.core().machine().reg(4), 44u); // validated epilogue ran
}

TEST(Smc, BaseConfigRefetchesPatchedCode)
{
    const MoviPatch patch = findMoviPatch();
    ASSERT_EQ(patch.diffs, 1u);
    auto p = makeSmcProgram(patch, /*trusted=*/false);
    SimConfig cfg;
    cfg.backend = validate::Backend::Null;
    Simulator sim(p, cfg);
    const SimResult r = sim.run();
    EXPECT_TRUE(r.run.halted);
    EXPECT_EQ(sim.core().machine().reg(5), 333u);
}

} // namespace
} // namespace rev::core
