#include "workloads/generator.hpp"

#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "workloads/gen_internal.hpp"

namespace rev::workloads
{

using prog::Assembler;

using namespace gendetail;

prog::Program
generateWorkload(const WorkloadProfile &profile)
{
    if (!isPow2(profile.entryFunctions))
        fatal("workload '", profile.name,
              "': entryFunctions must be a power of two");
    if (!isPow2(profile.dataFootprint))
        fatal("workload '", profile.name,
              "': dataFootprint must be a power of two");
    if (profile.numFunctions <= profile.entryFunctions)
        fatal("workload '", profile.name, "': too few functions");

    Assembler a(prog::kDefaultCodeBase);
    Gen g(profile, a);

    // ---- main: dispatch loop over the entry functions ---------------------
    a.label("main");
    a.movi(kIter, static_cast<i32>(profile.mainIterations));
    a.movi(kLcg, static_cast<i32>(0x2545f491u ^ (profile.seed & 0xffff)));
    a.movi(kDataBase, static_cast<i32>(prog::kHeapBase));
    a.movi(kCursor, 0);
    a.label("main_loop");
    lcgStep(g);
    // Sticky entry selection: the dispatched entry changes only every 64
    // outer iterations (program phases), as real indirect call sites are
    // mostly monomorphic over short windows.
    a.shri(kT0, kIter, 6);
    a.andi(kT0, kT0, static_cast<i32>(profile.entryFunctions - 1));
    a.shli(kT0, kT0, 3);
    a.la(kT1, "entry_table");
    a.add(kT1, kT1, kT0);
    a.ld(kT1, kT1, 0);
    const Addr dispatch = a.callr(kT1);
    a.annotateIndirect(dispatch,
                       std::span(g.fns).first(profile.entryFunctions));
    a.addi(kIter, kIter, -1);
    a.bne(kIter, 0, "main_loop");
    a.halt();

    // ---- function bodies ----------------------------------------------------
    for (unsigned i = 0; i < profile.numFunctions; ++i)
        emitFunction(g, i);

    // ---- data: dispatch + switch tables --------------------------------------
    a.beginData();
    a.align(8);
    a.label("entry_table");
    for (unsigned e = 0; e < profile.entryFunctions; ++e)
        a.word64Label(g.fns[e]);
    for (const auto &[tbl, cases] : g.tables) {
        a.bind(tbl);
        for (prog::Label c : cases)
            a.word64Label(c);
    }

    prog::Program p;
    p.addModule(a.finalize(profile.name, "main"));
    return p;
}

} // namespace rev::workloads
