/**
 * @file
 * Quickstart: build a tiny program with the assembler, run it on the
 * simulated out-of-order core with and without REV, and show what the
 * validator did.
 *
 *   ./examples/quickstart
 */

#include <cstdio>

#include "core/simulator.hpp"
#include "isa/codec.hpp"
#include "isa/disasm.hpp"
#include "program/assembler.hpp"

int
main()
{
    using namespace rev;

    // ---- 1. write a program with the label-based assembler ----------------
    // Computes sum(1..100) via a helper function and stores it on the heap.
    prog::Assembler a(prog::kDefaultCodeBase);
    a.label("main");
    a.movi(1, 0);    // acc
    a.movi(2, 100);  // i
    a.label("loop");
    a.call("accumulate");
    a.addi(2, 2, -1);
    a.bne(2, 0, "loop");
    a.movi(5, static_cast<i32>(prog::kHeapBase));
    a.st(1, 5, 0);
    a.halt();

    a.label("accumulate");
    a.add(1, 1, 2); // acc += i
    a.ret();

    prog::Program program;
    program.addModule(a.finalize("quickstart", "main"));

    // ---- 2. disassemble a few instructions --------------------------------
    std::printf("Program entry (disassembly):\n");
    const auto &mod = program.main();
    Addr pc = mod.base;
    for (int i = 0; i < 6; ++i) {
        const auto ins = isa::decode(mod.image.data() + (pc - mod.base),
                                     mod.codeSize - (pc - mod.base));
        std::printf("  0x%llx: %s\n", static_cast<unsigned long long>(pc),
                    isa::disassemble(*ins, pc).c_str());
        pc += ins->length();
    }

    // ---- 3. run on the base out-of-order core ------------------------------
    core::SimConfig base_cfg;
    base_cfg.backend = validate::Backend::Null;
    core::Simulator base(program, base_cfg);
    const core::SimResult rb = base.run();

    // ---- 4. run again with REV validating every basic block ----------------
    core::SimConfig rev_cfg; // the backend defaults to REV
    core::Simulator rev(program, rev_cfg);
    const core::SimResult rr = rev.run();

    std::printf("\nResult in memory: %llu (expected 5050)\n",
                static_cast<unsigned long long>(
                    rev.memory().read64(prog::kHeapBase)));

    std::printf("\n%-28s %12s %12s\n", "", "base", "with REV");
    std::printf("%-28s %12llu %12llu\n", "instructions",
                static_cast<unsigned long long>(rb.run.instrs),
                static_cast<unsigned long long>(rr.run.instrs));
    std::printf("%-28s %12llu %12llu\n", "cycles",
                static_cast<unsigned long long>(rb.run.cycles),
                static_cast<unsigned long long>(rr.run.cycles));
    std::printf("%-28s %12.3f %12.3f\n", "IPC", rb.run.ipc(), rr.run.ipc());
    std::printf("%-28s %12s %12llu\n", "basic blocks validated", "-",
                static_cast<unsigned long long>(rr.rev.bbValidated));
    std::printf("%-28s %12s %12llu\n", "SC misses", "-",
                static_cast<unsigned long long>(rr.rev.scMisses()));
    std::printf("%-28s %12s %12llu\n", "signature table bytes", "-",
                static_cast<unsigned long long>(rr.sigTableBytes));
    std::printf("%-28s %12s %12s\n", "violations", "-",
                rr.run.violation ? "YES" : "none");

    std::printf("\nEvery control transfer was authenticated against the "
                "encrypted reference\nsignatures; execution was clean.\n");
    return 0;
}
