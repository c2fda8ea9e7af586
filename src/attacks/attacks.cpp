/**
 * @file
 * The Table 1 attack classes (plus the intro's illegal-dynamic-linking).
 *
 * Every victim follows the same convention: the attacker's goal is to get
 * the value 666 written to the "secret" heap address. A successful attack
 * (on an unprotected machine) leaves 666 in memory; under REV the
 * offending basic block fails authentication and its stores never reach
 * memory (Requirement R5), so the secret stays 0.
 */

#include "attacks/attack.hpp"

#include "attacks/injector.hpp"
#include "isa/codec.hpp"
#include "program/assembler.hpp"

namespace rev::attacks
{

using isa::Opcode;
using prog::Assembler;
using prog::Program;
using sig::ValidationMode;

/** The memory location the attacker tries to taint. */
inline constexpr Addr kSecretAddr = prog::kHeapBase + 0x800;

AttackOutcome
Attack::execute(const core::SimConfig &cfg)
{
    triggered_ = false;
    victim_ = buildVictim();
    core::Simulator sim(victim_, cfg);
    arm(sim);

    AttackOutcome out;
    const core::SimResult r = sim.run();
    out.run = r.run;
    out.triggered = triggered_;
    // Only REV raises authentication exceptions. An unprotected machine
    // may still crash *after* the payload ran (e.g., a gadget's final RET
    // popping garbage) -- that is not detection.
    out.detected = cfg.backend != validate::Backend::Null &&
                   r.run.violation.has_value();
    if (out.detected)
        out.reason = r.run.violation->reason;
    out.succeeded = goalAchieved(sim);
    return out;
}

namespace
{

/** Encode a short "write 666 to [r5]" payload ending in @p tail. */
std::vector<u8>
shellcode(Opcode tail)
{
    std::vector<u8> bytes;
    isa::encode({.op = Opcode::Movi, .rd = 2, .imm = 666}, bytes);
    isa::encode({.op = Opcode::St, .rd = 2, .rs1 = 5, .imm = 0}, bytes);
    isa::encode({.op = tail}, bytes);
    return bytes;
}

// ---------------------------------------------------------------------------
// 1. Direct code injection: a higher-privilege process overwrites the
//    victim's binary on the fly.
// ---------------------------------------------------------------------------

class DirectCodeInjection : public Attack
{
  public:
    const char *name() const override { return "direct-code-injection"; }

    const char *
    table1Mechanism() const override
    {
        return "basic block crypto hash will not match reference hash";
    }

    TamperClass
    tamperClass() const override
    {
        // The injected code keeps the control-flow shape; the class is
        // blind under CFI-only validation (no hashes, Sec. V.D).
        return TamperClass::CodeSubstitution;
    }

  protected:
    Program
    buildVictim() override
    {
        Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(5, static_cast<i32>(kSecretAddr));
        a.movi(1, 0);
        a.movi(3, 4); // call update 4 times
        a.label("loop");
        a.call("update");
        a.addi(3, 3, -1);
        a.bne(3, 0, "loop");
        a.halt();

        a.label("update");
        a.addi(1, 1, 10);
        a.addi(1, 1, 10);
        a.addi(1, 1, 10);
        a.ret();

        Program p;
        p.addModule(a.finalize("victim", "main"));
        return p;
    }

    void
    arm(core::Simulator &sim) override
    {
        const Addr target = victim_.main().symbol("update");
        const Addr loop = victim_.main().symbol("loop");
        // Strike from "another process" while the victim is between
        // calls (never mid-way through the function being rewritten).
        inject::onceAtPc(
            sim, loop, /*min_index=*/9,
            [target](core::Simulator &s) {
                // Overwrite the update() body with the payload (padded
                // with NOPs to preserve the RET alignment).
                std::vector<u8> code = shellcode(Opcode::Nop);
                while (code.size() < 21)
                    code.push_back(static_cast<u8>(Opcode::Nop));
                inject::tamperCode(s, target, code);
            },
            triggered_);
    }

    bool
    goalAchieved(core::Simulator &sim) override
    {
        return sim.memory().read64(kSecretAddr) == 666;
    }
};

// ---------------------------------------------------------------------------
// 2. Indirect code injection: a buffer overflow writes shellcode onto the
//    stack and redirects the return into it.
// ---------------------------------------------------------------------------

class IndirectCodeInjection : public Attack
{
  public:
    const char *name() const override { return "indirect-code-injection"; }

    const char *
    table1Mechanism() const override
    {
        return "hash mismatch; control-flow path not in static analysis";
    }

    TamperClass
    tamperClass() const override
    {
        // The stack shellcode has no reference signatures at all.
        return TamperClass::ForeignCode;
    }

  protected:
    Program
    buildVictim() override
    {
        Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(5, static_cast<i32>(kSecretAddr));
        a.call("reader"); // "reads input" into a stack buffer
        a.halt();

        a.label("reader");
        a.addi(isa::kRegSp, isa::kRegSp, -64); // local buffer
        a.addi(1, 1, 1);
        a.addi(isa::kRegSp, isa::kRegSp, 64);
        retPc_ = a.ret();

        Program p;
        p.addModule(a.finalize("victim", "main"));
        return p;
    }

    void
    arm(core::Simulator &sim) override
    {
        inject::onceAtPc(
            sim, retPc_, /*min_index=*/0,
            [](core::Simulator &s) {
                const Addr sp = s.core().machine().reg(isa::kRegSp);
                const Addr shell = sp - 128; // in the overflowed buffer
                inject::tamperCode(s, shell, shellcode(Opcode::Halt));
                inject::smashReturnAddress(s, shell);
            },
            triggered_);
    }

    bool
    goalAchieved(core::Simulator &sim) override
    {
        return sim.memory().read64(kSecretAddr) == 666;
    }

  private:
    Addr retPc_ = 0;
};

// ---------------------------------------------------------------------------
// 3. Return-oriented programming: return into an unintended code chunk
//    (the tail of a privileged function).
// ---------------------------------------------------------------------------

class ReturnOriented : public Attack
{
  public:
    const char *name() const override { return "return-oriented"; }

    const char *
    table1Mechanism() const override
    {
        return "control-flow path will not match statically known path";
    }

    TamperClass
    tamperClass() const override
    {
        return TamperClass::ControlFlowHijack;
    }

  protected:
    Program
    buildVictim() override
    {
        Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(5, static_cast<i32>(kSecretAddr));
        a.call("worker");
        a.halt();

        a.label("worker");
        a.addi(1, 1, 1);
        retPc_ = a.ret();

        // A privileged function whose tail is the gadget.
        a.label("priv");
        a.addi(9, 9, 1);
        gadget_ = a.movi(2, 666); // gadget entry: mid-function, no leader
        a.st(2, 5, 0);
        a.ret();

        Program p;
        p.addModule(a.finalize("victim", "main"));
        return p;
    }

    void
    arm(core::Simulator &sim) override
    {
        inject::onceAtPc(
            sim, retPc_, /*min_index=*/0,
            [this](core::Simulator &s) {
                inject::smashReturnAddress(s, gadget_);
            },
            triggered_);
    }

    bool
    goalAchieved(core::Simulator &sim) override
    {
        return sim.memory().read64(kSecretAddr) == 666;
    }

  private:
    Addr retPc_ = 0;
    Addr gadget_ = 0;
};

// ---------------------------------------------------------------------------
// 4. Jump-oriented programming: corrupt the dispatcher table feeding a
//    computed jump.
// ---------------------------------------------------------------------------

class JumpOriented : public Attack
{
  public:
    const char *name() const override { return "jump-oriented"; }

    const char *
    table1Mechanism() const override
    {
        return "gadget hash / control-flow path will not match reference";
    }

    TamperClass
    tamperClass() const override
    {
        return TamperClass::ControlFlowHijack;
    }

  protected:
    Program
    buildVictim() override
    {
        Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(5, static_cast<i32>(kSecretAddr));
        a.la(4, "table");
        a.ld(6, 4, 0); // dispatcher target
        const Addr site = a.jmpr(6);
        a.annotateIndirect(site, {"handler"});
        a.label("handler");
        a.addi(1, 1, 1);
        a.halt();

        a.label("gadget");
        a.movi(2, 666);
        a.st(2, 5, 0);
        a.halt();

        a.beginData();
        a.align(8);
        a.label("table");
        a.word64Label("handler");

        Program p;
        p.addModule(a.finalize("victim", "main"));
        tableAddr_ = p.main().symbol("table");
        gadget_ = p.main().symbol("gadget");
        return p;
    }

    void
    arm(core::Simulator &sim) override
    {
        // Corrupt the dispatcher table before main loads from it.
        sim.memory().write64(tableAddr_, gadget_);
        triggered_ = true;
    }

    bool
    goalAchieved(core::Simulator &sim) override
    {
        return sim.memory().read64(kSecretAddr) == 666;
    }

  private:
    Addr tableAddr_ = 0;
    Addr gadget_ = 0;
};

// ---------------------------------------------------------------------------
// 5. VTable compromise: overwrite a function pointer used by an indirect
//    call in an object-oriented dispatch.
// ---------------------------------------------------------------------------

class VtableCompromise : public Attack
{
  public:
    const char *name() const override { return "vtable-compromise"; }

    const char *
    table1Mechanism() const override
    {
        return "control-flow path will not match statically known path";
    }

    TamperClass
    tamperClass() const override
    {
        return TamperClass::ControlFlowHijack;
    }

  protected:
    Program
    buildVictim() override
    {
        Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(5, static_cast<i32>(kSecretAddr));
        // Object's vtable lives on the heap; constructor fills it.
        a.movi(7, static_cast<i32>(prog::kHeapBase));
        a.la(8, "method_a");
        a.st(8, 7, 0); // vtable[0] = method_a
        a.jmp("dispatch"); // constructor's block ends; vtable visible
        a.label("dispatch");
        // Virtual dispatch.
        a.ld(6, 7, 0);
        const Addr site = a.callr(6);
        a.annotateIndirect(site, {"method_a", "method_b"});
        a.halt();

        a.label("method_a");
        a.addi(1, 1, 1);
        a.ret();
        a.label("method_b");
        a.addi(1, 1, 2);
        a.ret();

        a.label("evil");
        a.movi(2, 666);
        a.st(2, 5, 0);
        a.ret();

        Program p;
        p.addModule(a.finalize("victim", "main"));
        dispatchPc_ = site;
        evil_ = p.main().symbol("evil");
        return p;
    }

    void
    arm(core::Simulator &sim) override
    {
        // Overwrite the vtable slot after the constructor ran but before
        // the dispatch loads it.
        inject::onceAtPc(
            sim, dispatchPc_ - 7 /* the LD */, /*min_index=*/0,
            [this](core::Simulator &s) {
                s.memory().write64(prog::kHeapBase, evil_);
            },
            triggered_);
    }

    bool
    goalAchieved(core::Simulator &sim) override
    {
        return sim.memory().read64(kSecretAddr) == 666;
    }

  private:
    Addr dispatchPc_ = 0;
    Addr evil_ = 0;
};

// ---------------------------------------------------------------------------
// 6. Return-to-libc: redirect a return to a legitimate library entry
//    point.
// ---------------------------------------------------------------------------

class ReturnToLibc : public Attack
{
  public:
    const char *name() const override { return "return-to-libc"; }

    const char *
    table1Mechanism() const override
    {
        return "control-flow path will not match statically known path";
    }

    TamperClass
    tamperClass() const override
    {
        return TamperClass::ControlFlowHijack;
    }

  protected:
    Program
    buildVictim() override
    {
        Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(5, static_cast<i32>(kSecretAddr));
        a.call("worker");
        a.halt();

        a.label("worker");
        a.addi(1, 1, 1);
        // Never-taken guard keeps libc_system a statically known entry
        // point (it has legitimate callers elsewhere in a real system).
        a.bne(0, 0, "libc_system");
        retPc_ = a.ret();

        // "libc system()": a legitimate, signed function -- but never a
        // valid return target of worker's caller.
        a.label("libc_system");
        a.movi(2, 666);
        a.st(2, 5, 0);
        a.halt();

        Program p;
        p.addModule(a.finalize("victim", "main"));
        libc_ = p.main().symbol("libc_system");
        return p;
    }

    void
    arm(core::Simulator &sim) override
    {
        inject::onceAtPc(
            sim, retPc_, /*min_index=*/0,
            [this](core::Simulator &s) {
                inject::smashReturnAddress(s, libc_);
            },
            triggered_);
    }

    bool
    goalAchieved(core::Simulator &sim) override
    {
        return sim.memory().read64(kSecretAddr) == 666;
    }

  private:
    Addr retPc_ = 0;
    Addr libc_ = 0;
};

// ---------------------------------------------------------------------------
// 7. Illegal dynamic linking: a module is mapped and invoked without the
//    trusted linker (no signature table, no SAG registration, no site
//    annotation) -- one of the compromise classes in the paper's intro.
// ---------------------------------------------------------------------------

class IllegalDynamicLinking : public Attack
{
  public:
    const char *name() const override { return "illegal-dynamic-linking"; }

    const char *
    table1Mechanism() const override
    {
        return "callee has no reference signatures; transfer not in "
               "static analysis";
    }

    TamperClass
    tamperClass() const override
    {
        return TamperClass::ForeignCode;
    }

  protected:
    Program
    buildVictim() override
    {
        Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(5, static_cast<i32>(kSecretAddr));
        // Plugin dispatch through a writable pointer slot.
        a.la(4, "plugin_slot");
        a.ld(4, 4, 0);
        const Addr site = a.callr(4);
        a.annotateIndirect(site, {"builtin_plugin"});
        a.halt();

        a.label("builtin_plugin");
        a.addi(1, 1, 1);
        a.ret();

        a.beginData();
        a.align(8);
        a.label("plugin_slot");
        a.word64Label("builtin_plugin");

        Program p;
        p.addModule(a.finalize("victim", "main"));
        slot_ = p.main().symbol("plugin_slot");
        return p;
    }

    void
    arm(core::Simulator &sim) override
    {
        // "Link" the rogue plugin: write its image into fresh memory and
        // repoint the dispatch slot -- skipping the trusted linker, so no
        // table, no annotations, no SAG entry.
        const Addr rogue_base = 0x90000;
        Assembler a(rogue_base);
        a.label("entry");
        a.movi(2, 666);
        a.st(2, 5, 0);
        a.ret();
        const prog::Module rogue = a.finalize("rogue", "entry");
        inject::tamperCode(sim, rogue.base, rogue.image);
        sim.memory().write64(slot_, rogue.symbol("entry"));
        triggered_ = true;
    }

    bool
    goalAchieved(core::Simulator &sim) override
    {
        return sim.memory().read64(kSecretAddr) == 666;
    }

  private:
    Addr slot_ = 0;
};

} // namespace

std::vector<std::unique_ptr<Attack>>
makeAllAttacks()
{
    std::vector<std::unique_ptr<Attack>> all;
    all.push_back(std::make_unique<DirectCodeInjection>());
    all.push_back(std::make_unique<IndirectCodeInjection>());
    all.push_back(std::make_unique<ReturnOriented>());
    all.push_back(std::make_unique<JumpOriented>());
    all.push_back(std::make_unique<VtableCompromise>());
    all.push_back(std::make_unique<ReturnToLibc>());
    all.push_back(std::make_unique<IllegalDynamicLinking>());
    return all;
}

} // namespace rev::attacks
