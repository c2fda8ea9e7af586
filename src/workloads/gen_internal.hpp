/**
 * @file
 * Shared code-emission internals of the workload generators.
 *
 * The synthetic-workload generator (generator.cpp) and the
 * preemptive-scheduler workload (scheduler.cpp) emit function bodies
 * with the same register conventions and construct emitters; this header
 * is their common toolbox. It is internal to src/workloads/ — tools and
 * tests consume the generators through generator.hpp / scheduler.hpp.
 */

#ifndef REV_WORKLOADS_GEN_INTERNAL_HPP
#define REV_WORKLOADS_GEN_INTERNAL_HPP

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "program/assembler.hpp"
#include "workloads/profile.hpp"

namespace rev::workloads::gendetail
{

/** Register conventions of generated code. */
constexpr u8 kIter = 20;   ///< main's outer loop counter
constexpr u8 kLcg = 21;    ///< global LCG state (data-dependent control)
constexpr u8 kDataBase = 22;
constexpr u8 kCursor = 23; ///< data cursor
constexpr u8 kLoop = 15;   ///< inner-loop trip counter
constexpr u8 kT0 = 16, kT1 = 17; ///< scratch (tests / addressing)

inline std::string
fnLabel(unsigned idx)
{
    return "fn_" + std::to_string(idx);
}

/**
 * Builder state threaded through the emitters. Functions are named
 * labels ("fn_N"); every block-local target is an anonymous label.
 */
struct Gen
{
    /** Cases of a generated switch. */
    using Cases = std::array<prog::Label, 4>;

    Gen(const WorkloadProfile &profile, prog::Assembler &assembler)
        : prof(profile), a(assembler), rng(profile.seed ^ 0x5bdc1e9au)
    {
        fns.reserve(profile.numFunctions);
        for (unsigned i = 0; i < profile.numFunctions; ++i)
            fns.push_back(a.named(fnLabel(i)));
    }

    const WorkloadProfile &prof;
    prog::Assembler &a;
    Rng rng;
    u8 nextDst = 1; ///< rotates r1..r12
    std::vector<prog::Label> fns; ///< function index -> its label
    /** Deferred switch tables: (table label, case labels). */
    std::vector<std::pair<prog::Label, Cases>> tables;

    u8
    dst()
    {
        const u8 r = nextDst;
        nextDst = nextDst == 12 ? 1 : nextDst + 1;
        return r;
    }
};

/** Advance the in-register LCG (the source of "data-dependent" control). */
inline void
lcgStep(Gen &g)
{
    g.a.muli(kLcg, kLcg, 1103515245);
    g.a.addi(kLcg, kLcg, 12345);
}

/**
 * r16 = 1 with probability @p p, using fresh LCG bits.
 */
inline void
emitChance(Gen &g, double p)
{
    const int threshold =
        std::clamp(static_cast<int>(p * 256.0), 1, 255);
    lcgStep(g);
    g.a.shri(kT0, kLcg, static_cast<i32>(8 + g.rng.below(12)));
    g.a.andi(kT0, kT0, 255);
    g.a.slti(kT0, kT0, threshold);
}

/** Emit one data-memory access (load or store) plus a cursor advance. */
inline void
emitMemAccess(Gen &g, bool is_store)
{
    const WorkloadProfile &p = g.prof;
    g.a.add(kT1, kDataBase, kCursor);
    const i32 off = static_cast<i32>(g.rng.below(8)) * 8;
    const double width = g.rng.uniform();
    if (is_store) {
        if (width < 0.15)
            g.a.sb(g.dst(), kT1, off);
        else if (width < 0.40)
            g.a.sw(g.dst(), kT1, off);
        else
            g.a.st(g.dst(), kT1, off);
    } else {
        if (width < 0.15)
            g.a.lb(g.dst(), kT1, off);
        else if (width < 0.40)
            g.a.lw(g.dst(), kT1, off);
        else
            g.a.ld(g.dst(), kT1, off);
    }

    const u32 mask = static_cast<u32>(p.dataFootprint - 1) & ~7u;
    if (p.dataStride != 0) {
        g.a.addi(kCursor, kCursor, static_cast<i32>(p.dataStride));
        g.a.andi(kCursor, kCursor, static_cast<i32>(mask));
    } else {
        // Irregular: hash the LCG into an offset.
        g.a.shri(kT1, kLcg, 7);
        g.a.andi(kT1, kT1, static_cast<i32>(mask));
        g.a.or_(kCursor, kT1, 0);
    }
}

/** Emit ~len instructions of straight-line work with the profile's mix. */
inline void
emitStraight(Gen &g, unsigned len)
{
    const WorkloadProfile &p = g.prof;
    unsigned emitted = 0;
    while (emitted < len) {
        const double pick = g.rng.uniform();
        if (pick < p.loadFrac) {
            emitMemAccess(g, false);
            emitted += 3;
        } else if (pick < p.loadFrac + p.storeFrac) {
            emitMemAccess(g, true);
            emitted += 3;
        } else if (pick < p.loadFrac + p.storeFrac + p.fpFrac) {
            const u8 d = g.dst();
            if (g.rng.chance(0.5))
                g.a.fadd(d, 8, 9);
            else
                g.a.fmul(d, 8, 10);
            ++emitted;
        } else if (pick <
                   p.loadFrac + p.storeFrac + p.fpFrac + p.mulFrac) {
            const u8 d = g.dst();
            if (g.rng.chance(0.15))
                g.a.divu(d, d, 3);
            else
                g.a.mul(d, d, 5);
            ++emitted;
        } else {
            // Integer ALU with short dependency chains.
            const u8 d = g.dst();
            switch (g.rng.below(4)) {
              case 0:
                g.a.addi(d, d, static_cast<i32>(g.rng.below(100)));
                break;
              case 1:
                g.a.xor_(d, d, static_cast<u8>(1 + g.rng.below(12)));
                break;
              case 2:
                g.a.shli(d, d, static_cast<i32>(g.rng.below(8)));
                break;
              default:
                g.a.add(d, d, static_cast<u8>(1 + g.rng.below(12)));
                break;
            }
            ++emitted;
        }
    }
}

/** if/else diamond steered by the LCG with the profile's bias. */
inline void
emitDiamond(Gen &g)
{
    const prog::Label l_then = g.a.newLabel();
    const prog::Label l_join = g.a.newLabel();
    emitChance(g, g.prof.branchBias);
    g.a.bne(kT0, 0, l_then);
    emitStraight(g, 2 + g.rng.below(3));
    g.a.jmp(l_join);
    g.a.bind(l_then);
    emitStraight(g, 2 + g.rng.below(3));
    g.a.bind(l_join);
}

/** Counted inner loop (locality amplifier). */
inline void
emitLoop(Gen &g)
{
    const prog::Label l_top = g.a.newLabel();
    const unsigned iters =
        std::max<unsigned>(2, g.prof.loopIters + g.rng.below(4));
    g.a.movi(kLoop, static_cast<i32>(iters));
    g.a.bind(l_top);
    emitStraight(g, g.prof.straightLen);
    g.a.addi(kLoop, kLoop, -1);
    g.a.bne(kLoop, 0, l_top);
}

/** Computed-jump switch over a per-function jump table (4 cases). */
inline void
emitSwitch(Gen &g)
{
    const prog::Label tbl = g.a.newLabel();
    const prog::Label join = g.a.newLabel();
    Gen::Cases cases;
    for (prog::Label &c : cases)
        c = g.a.newLabel();

    // Case selection follows the (slowly moving) data cursor rather than
    // the per-step LCG: real switches are phase-biased, not uniform.
    g.a.shri(kT0, kCursor, static_cast<i32>(11 + g.rng.below(4)));
    g.a.andi(kT0, kT0, 3);
    g.a.shli(kT0, kT0, 3);
    g.a.la(kT1, tbl);
    g.a.add(kT1, kT1, kT0);
    g.a.ld(kT1, kT1, 0);
    const Addr site = g.a.jmpr(kT1);
    g.a.annotateIndirect(site, cases);

    for (prog::Label c : cases) {
        g.a.bind(c);
        emitStraight(g, 1 + g.rng.below(3));
        g.a.jmp(join);
    }
    g.a.bind(join);
    g.tables.emplace_back(tbl, cases);
}

/** A dynamically gated direct call to @p callee, in function @p caller. */
inline void
emitGatedCall(Gen &g, unsigned caller, unsigned callee)
{
    const prog::Label l_skip = g.a.newLabel();
    // A site is statically "hot" or "cold"; gateSpread controls how noisy
    // its gate is at run time. Sites beyond hotReach are always cold,
    // bounding the hot working set.
    const bool hot = (g.prof.hotReach == 0 || caller < g.prof.hotReach) &&
                     g.rng.chance(g.prof.callProb);
    const double p = hot ? 1.0 - g.prof.gateSpread : g.prof.gateSpread;
    emitChance(g, p);
    g.a.beq(kT0, 0, l_skip);
    g.a.call(g.fns[callee]);
    g.a.bind(l_skip);
}

/** Emit one complete function body. */
inline void
emitFunction(Gen &g, unsigned idx)
{
    const WorkloadProfile &p = g.prof;
    g.a.bind(g.fns[idx]);

    enum class Kind { Straight, Diamond, Loop, Call, Switch };
    std::vector<Kind> plan;
    const unsigned constructs =
        p.minConstructs +
        g.rng.below(p.maxConstructs - p.minConstructs + 1);
    for (unsigned c = 0; c < constructs; ++c) {
        const double pick = g.rng.uniform();
        if (pick < p.loopFrac)
            plan.push_back(Kind::Loop);
        else if (pick < p.loopFrac + 0.4)
            plan.push_back(Kind::Diamond);
        else
            plan.push_back(Kind::Straight);
    }
    // Call sites (only for callees that exist: the call graph is a DAG).
    std::vector<unsigned> callees;
    for (unsigned s = 0; s < p.callSitesPerFn; ++s) {
        const unsigned lo = idx + 1;
        if (lo >= p.numFunctions)
            break;
        const unsigned hi =
            std::min<unsigned>(p.numFunctions - 1, idx + p.callSpan);
        callees.push_back(
            static_cast<unsigned>(g.rng.range(lo, hi)));
        plan.push_back(Kind::Call);
    }
    if (g.rng.chance(p.indirectFnFrac))
        plan.push_back(Kind::Switch);

    // Shuffle the plan (Fisher-Yates).
    for (std::size_t i = plan.size(); i > 1; --i)
        std::swap(plan[i - 1], plan[g.rng.below(i)]);

    std::size_t next_callee = 0;
    for (Kind k : plan) {
        switch (k) {
          case Kind::Straight:
            emitStraight(g, p.straightLen);
            break;
          case Kind::Diamond:
            emitDiamond(g);
            break;
          case Kind::Loop:
            emitLoop(g);
            break;
          case Kind::Call:
            emitGatedCall(g, idx, callees[next_callee++]);
            break;
          case Kind::Switch:
            emitSwitch(g);
            break;
        }
    }
    g.a.ret();
}

} // namespace rev::workloads::gendetail

#endif // REV_WORKLOADS_GEN_INTERNAL_HPP
