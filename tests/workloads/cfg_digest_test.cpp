/**
 * @file
 * Reference-CFG pinning: a digest of every linked CFG the signature
 * builder derives for the 15 SPEC stand-ins and the scheduler workload.
 * Each program's modules are derived one by one and linked together, the
 * way the trusted linker does it. The digest covers, in block order, each
 * block's start, terminator, end, kind, instruction and store counts, and
 * its successor and return-predecessor lists in order; the line also
 * carries the CFG's CfgStats. Any change to block discovery, successor
 * order or return-edge order shows here directly.
 *
 * On a mismatch the computed lines are written to cfg_digests.actual.txt
 * in the working directory; a deliberate CFG change refreshes the golden
 * by copying that file over it.
 */

#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "program/cfg.hpp"
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
    word(u64 v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= static_cast<u8>(v >> (8 * i));
            h *= 0x100000001b3ULL;
        }
    }

    void
    list(std::span<const Addr> addrs)
    {
        word(addrs.size());
        for (Addr a : addrs)
            word(a);
    }
};

/** One line per module: profile, module, block count, stats, digest. */
std::string
digestLines(const std::string &profile, const prog::Program &program)
{
    std::vector<prog::Cfg> cfgs;
    for (const prog::Module &m : program.modules())
        cfgs.push_back(prog::deriveCfg(m));
    std::vector<prog::Cfg *> ptrs;
    for (prog::Cfg &cfg : cfgs)
        ptrs.push_back(&cfg);
    prog::linkCfgs(ptrs);

    std::ostringstream os;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const prog::Cfg &cfg = cfgs[i];
        Fnv1a f;
        for (const prog::BasicBlock &bb : cfg.blocks()) {
            f.word(bb.start);
            f.word(bb.term);
            f.word(bb.end);
            f.word(static_cast<u64>(bb.kind));
            f.word(bb.numInstrs);
            f.word(bb.numStores);
            f.list(cfg.succs(bb));
            f.list(cfg.retPreds(bb));
        }
        const prog::CfgStats s = cfg.stats();
        f.word(std::bit_cast<u64>(s.avgInstrsPerBlock));
        f.word(std::bit_cast<u64>(s.avgSuccsPerBlock));
        os << profile << ' ' << program.modules()[i].name << ' '
           << s.numBlocks << ' ' << s.numTerminators << ' '
           << s.numComputedSites << ' ' << s.numBranchInstrs << std::hex
           << ' ' << f.h << std::dec << '\n';
    }
    return os.str();
}

TEST(CfgDigest, EveryGeneratedCfgMatchesPinnedDigest)
{
    std::vector<WorkloadProfile> profiles = spec2006Profiles();
    profiles.push_back(schedStormProfile());
    std::string actual;
    for (const WorkloadProfile &p : profiles)
        actual += digestLines(p.name, buildProgram(p));

    std::ifstream in(REV_GOLDEN_CFG_DIGESTS_PATH);
    ASSERT_TRUE(in) << "missing golden " << REV_GOLDEN_CFG_DIGESTS_PATH;
    std::stringstream golden;
    golden << in.rdbuf();
    if (golden.str() != actual) {
        std::ofstream("cfg_digests.actual.txt") << actual;
        std::istringstream g(golden.str()), a(actual);
        std::string gl, al;
        while (true) {
            const bool more_g = static_cast<bool>(std::getline(g, gl));
            const bool more_a = static_cast<bool>(std::getline(a, al));
            if (!more_g && !more_a)
                break;
            EXPECT_EQ(more_g ? gl : "", more_a ? al : "");
        }
        FAIL() << "derived CFGs changed; see cfg_digests.actual.txt";
    }
}

} // namespace
} // namespace rev::workloads
