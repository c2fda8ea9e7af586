/**
 * @file
 * Attack demo: a return-oriented attack against a vulnerable "license
 * check" routine, shown three ways:
 *
 *  1. no attack                  -> program denies the pirate copy
 *  2. attack, unprotected CPU    -> return smashed, check bypassed
 *  3. attack, REV-protected CPU  -> compromise detected at commit time
 *                                   and the tainted store never lands
 *
 * This is the paper's motivating DRM scenario (Sec. I): run-time attacks
 * that "disable calls to the license verification system".
 */

#include <cstdio>

#include "core/simulator.hpp"
#include "program/assembler.hpp"

namespace
{

using namespace rev;

constexpr Addr kLicensedFlag = prog::kHeapBase; // 1 = licensed

struct Victim
{
    prog::Program program;
    Addr checkRet = 0; ///< the RET whose return address gets smashed
    Addr grant = 0;    ///< "grant access" code the attacker jumps to
};

Victim
buildVictim()
{
    Victim v;
    prog::Assembler a(prog::kDefaultCodeBase);

    a.label("main");
    a.movi(5, static_cast<i32>(kLicensedFlag));
    a.call("check_license");
    // r1 = 1 iff licensed; only then call grant_access.
    a.beq(1, 0, "deny");
    a.call("grant_access");
    a.halt();
    a.label("deny");
    a.movi(9, -1); // access denied marker
    a.halt();

    a.label("check_license");
    // The license is *not* valid: returns 0. (A real routine would parse
    // an input buffer here -- the overflow the attacker exploits.)
    a.movi(1, 0);
    v.checkRet = a.ret();

    a.label("grant_access");
    a.movi(2, 1);
    a.st(2, 5, 0); // licensed = 1
    a.halt();      // granted session runs from here

    v.program.addModule(a.finalize("drm", "main"));
    v.grant = v.program.main().symbol("grant_access");
    return v;
}

struct Outcome
{
    bool licensed;
    bool detected;
    std::string reason;
};

Outcome
run(bool attack, bool with_rev)
{
    Victim v = buildVictim();
    core::SimConfig cfg;
    if (!with_rev)
        cfg.backend = validate::Backend::Null;
    core::Simulator sim(v.program, cfg);

    if (attack) {
        // Exploit: when check_license is about to return, overwrite its
        // stacked return address with grant_access's entry.
        sim.core().setPreStepHook([&v, &sim](u64, Addr pc) {
            if (pc == v.checkRet) {
                const Addr sp = sim.core().machine().reg(isa::kRegSp);
                sim.memory().write64(sp, v.grant);
            }
        });
    }

    const core::SimResult r = sim.run();
    Outcome out;
    out.licensed = sim.memory().read64(kLicensedFlag) == 1;
    out.detected = r.run.violation.has_value();
    if (out.detected)
        out.reason = r.run.violation->reason;
    return out;
}

void
report(const char *label, const Outcome &o)
{
    std::printf("%-34s licensed=%-5s %s%s\n", label,
                o.licensed ? "YES" : "no",
                o.detected ? "VIOLATION: " : "",
                o.reason.c_str());
}

} // namespace

int
main()
{
    std::printf("DRM bypass via return-address smash (paper Sec. I "
                "motivation)\n");
    std::printf("------------------------------------------------------------"
                "----\n");
    report("1. honest run, no REV:", run(false, false));
    report("2. attack,     no REV:", run(true, false));
    report("3. attack,   with REV:", run(true, true));
    std::printf("------------------------------------------------------------"
                "----\n");
    std::printf("With REV the illegal return edge fails authentication at "
                "commit time;\nthe grant_access store is squashed and never "
                "reaches memory (R5).\n");
    return 0;
}
