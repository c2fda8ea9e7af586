/**
 * @file
 * Generated-program pinning: a digest of every module the workload
 * generators emit for the 15 SPEC stand-ins and the scheduler workload.
 * The digest covers the image bytes, the code size, the entry point and
 * the computed-branch annotations, so any change to how the generators
 * emit code or how the assembler resolves labels shows here directly.
 *
 * On a mismatch the computed lines are written to
 * program_digests.actual.txt in the working directory; a deliberate
 * generator change refreshes the golden by copying that file over it.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "workloads/generator.hpp"
#include "workloads/scheduler.hpp"

namespace rev::workloads
{
namespace
{

/** Incremental FNV-1a 64. */
struct Fnv1a
{
    u64 h = 0xcbf29ce484222325ULL;

    void
    bytes(const u8 *p, std::size_t len)
    {
        for (std::size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    void
    word(u64 v)
    {
        for (int i = 0; i < 8; ++i) {
            const u8 b = static_cast<u8>(v >> (8 * i));
            bytes(&b, 1);
        }
    }
};

/** One line per module: profile, module, image size, code size, entry,
 *  digest. */
std::string
digestLines(const std::string &profile, const prog::Program &program)
{
    std::ostringstream os;
    for (const prog::Module &m : program.modules()) {
        Fnv1a f;
        f.bytes(m.image.data(), m.image.size());
        f.word(m.codeSize);
        f.word(m.entry);
        f.word(m.indirectTargets.size());
        for (const auto &[site, targets] : m.indirectTargets) {
            f.word(site);
            f.word(targets.size());
            for (Addr t : targets)
                f.word(t);
        }
        os << profile << ' ' << m.name << ' ' << m.image.size() << ' '
           << m.codeSize << std::hex << " 0x" << m.entry << ' ' << f.h
           << std::dec << '\n';
    }
    return os.str();
}

TEST(ProgramDigest, EveryGeneratedModuleMatchesPinnedBytes)
{
    std::vector<WorkloadProfile> profiles = spec2006Profiles();
    profiles.push_back(schedStormProfile());
    std::string actual;
    for (const WorkloadProfile &p : profiles)
        actual += digestLines(p.name, buildProgram(p));

    std::ifstream in(REV_GOLDEN_PROGRAM_DIGESTS_PATH);
    ASSERT_TRUE(in) << "missing golden " << REV_GOLDEN_PROGRAM_DIGESTS_PATH;
    std::stringstream golden;
    golden << in.rdbuf();
    if (golden.str() != actual) {
        std::ofstream("program_digests.actual.txt") << actual;
        std::istringstream g(golden.str()), a(actual);
        std::string gl, al;
        while (true) {
            const bool more_g = static_cast<bool>(std::getline(g, gl));
            const bool more_a = static_cast<bool>(std::getline(a, al));
            if (!more_g && !more_a)
                break;
            EXPECT_EQ(more_g ? gl : "", more_a ? al : "");
        }
        FAIL() << "generated program bytes changed; see "
                  "program_digests.actual.txt";
    }
}

} // namespace
} // namespace rev::workloads
