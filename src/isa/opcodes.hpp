/**
 * @file
 * RVX opcode definitions and per-opcode traits.
 *
 * RVX is the guest ISA of the simulator: a 64-bit register machine with a
 * *variable-length byte encoding* (1..7 bytes per instruction), standing in
 * for x86-64 (see DESIGN.md substitutions). REV hashes raw instruction
 * bytes, so the encoding is the contract the whole validation stack is
 * built on. Calls push their return address on the in-memory stack and RET
 * pops it, which is what makes return-oriented attacks genuinely
 * expressible against the simulated machine.
 */

#ifndef REV_ISA_OPCODES_HPP
#define REV_ISA_OPCODES_HPP

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace rev::isa
{

/** Number of architectural registers. */
inline constexpr unsigned kNumArchRegs = 32;

/** r0 is hardwired to zero. */
inline constexpr u8 kRegZero = 0;

/** r30 is the stack pointer by convention (used by CALL/RET). */
inline constexpr u8 kRegSp = 30;

/** RVX opcodes. Values are the first encoded byte and must stay stable. */
enum class Opcode : u8
{
    // 1-byte encodings
    Nop = 0x03, // note: 0x00 is deliberately NOT a valid opcode, so that
                // zero-filled memory never decodes as an instruction sled
    Halt = 0x01,
    Ret = 0x02,

    // 2-byte encodings: op, reg
    CallR = 0x08, ///< indirect call through register
    JmpR = 0x09,  ///< computed jump through register
    Syscall = 0x0a, ///< op, imm8 service number

    // 4-byte R3 encodings: op, rd, rs1, rs2
    Add = 0x10,
    Sub = 0x11,
    Mul = 0x12,
    Divu = 0x13,
    And = 0x14,
    Or = 0x15,
    Xor = 0x16,
    Shl = 0x17,
    Shr = 0x18,
    Slt = 0x19,  ///< rd = (i64)rs1 < (i64)rs2
    Sltu = 0x1a,
    Fadd = 0x1b, ///< operates on registers holding double bit patterns
    Fsub = 0x1c,
    Fmul = 0x1d,
    Fdiv = 0x1e,

    // 5-byte encodings: op, imm32 (PC-relative)
    Jmp = 0x20,
    Call = 0x21,

    // 6-byte encodings: op, rd, imm32
    Movi = 0x28, ///< rd = sign-extended imm32
    Lui = 0x29,  ///< rd = imm32 << 32

    // 7-byte RI encodings: op, rd, rs1, imm32
    Addi = 0x30,
    Andi = 0x31,
    Ori = 0x32,
    Xori = 0x33,
    Shli = 0x34,
    Shri = 0x35,
    Slti = 0x36,
    Muli = 0x37,

    // 7-byte MEM encodings: op, r, base, imm32
    Ld = 0x40,  ///< r = mem64[base + imm]
    St = 0x41,  ///< mem64[base + imm] = r
    Lb = 0x42,  ///< r = zext(mem8[base + imm])
    Sb = 0x43,  ///< mem8[base + imm] = r & 0xff
    Lw = 0x44,  ///< r = zext(mem32[base + imm])
    Sw = 0x45,  ///< mem32[base + imm] = r & 0xffffffff

    // 7-byte branch encodings: op, rs1, rs2, imm32 (target = pc + imm)
    Beq = 0x50,
    Bne = 0x51,
    Blt = 0x52,
    Bge = 0x53,
    Bltu = 0x54,
};

/** Broad classes used by the pipeline's functional-unit scheduling. */
enum class InstrClass : u8
{
    Nop,
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    FpMul,
    FpDiv,
    Load,
    Store,
    Branch,       ///< conditional PC-relative branch
    Jump,         ///< direct unconditional jump
    Call,         ///< direct call (pushes return address: store-like)
    CallIndirect, ///< computed call (store-like)
    JumpIndirect, ///< computed jump
    Return,       ///< pops return address (load-like)
    Syscall,
    Halt,
};

namespace detail
{

/** Per-opcode traits; the default row is an undefined opcode byte. */
struct OpcodeTraits
{
    u8 length = 0; ///< encoded bytes; 0 = undefined
    InstrClass klass = InstrClass::IntAlu;
    u8 memBytes = 0; ///< data access width of loads/stores
};

struct OpcodeRow
{
    Opcode op;
    const char *name;
    OpcodeTraits traits;
};

// clang-format off
/** One row per defined opcode. */
inline constexpr OpcodeRow kOpcodeRows[] = {
    {Opcode::Nop,     "nop",     {1, InstrClass::Nop}},
    {Opcode::Halt,    "halt",    {1, InstrClass::Halt}},
    {Opcode::Ret,     "ret",     {1, InstrClass::Return}},
    {Opcode::CallR,   "callr",   {2, InstrClass::CallIndirect}},
    {Opcode::JmpR,    "jmpr",    {2, InstrClass::JumpIndirect}},
    {Opcode::Syscall, "syscall", {2, InstrClass::Syscall}},
    {Opcode::Add,     "add",     {4, InstrClass::IntAlu}},
    {Opcode::Sub,     "sub",     {4, InstrClass::IntAlu}},
    {Opcode::Mul,     "mul",     {4, InstrClass::IntMul}},
    {Opcode::Divu,    "divu",    {4, InstrClass::IntDiv}},
    {Opcode::And,     "and",     {4, InstrClass::IntAlu}},
    {Opcode::Or,      "or",      {4, InstrClass::IntAlu}},
    {Opcode::Xor,     "xor",     {4, InstrClass::IntAlu}},
    {Opcode::Shl,     "shl",     {4, InstrClass::IntAlu}},
    {Opcode::Shr,     "shr",     {4, InstrClass::IntAlu}},
    {Opcode::Slt,     "slt",     {4, InstrClass::IntAlu}},
    {Opcode::Sltu,    "sltu",    {4, InstrClass::IntAlu}},
    {Opcode::Fadd,    "fadd",    {4, InstrClass::FpAlu}},
    {Opcode::Fsub,    "fsub",    {4, InstrClass::FpAlu}},
    {Opcode::Fmul,    "fmul",    {4, InstrClass::FpMul}},
    {Opcode::Fdiv,    "fdiv",    {4, InstrClass::FpDiv}},
    {Opcode::Jmp,     "jmp",     {5, InstrClass::Jump}},
    {Opcode::Call,    "call",    {5, InstrClass::Call}},
    {Opcode::Movi,    "movi",    {6, InstrClass::IntAlu}},
    {Opcode::Lui,     "lui",     {6, InstrClass::IntAlu}},
    {Opcode::Addi,    "addi",    {7, InstrClass::IntAlu}},
    {Opcode::Andi,    "andi",    {7, InstrClass::IntAlu}},
    {Opcode::Ori,     "ori",     {7, InstrClass::IntAlu}},
    {Opcode::Xori,    "xori",    {7, InstrClass::IntAlu}},
    {Opcode::Shli,    "shli",    {7, InstrClass::IntAlu}},
    {Opcode::Shri,    "shri",    {7, InstrClass::IntAlu}},
    {Opcode::Slti,    "slti",    {7, InstrClass::IntAlu}},
    {Opcode::Muli,    "muli",    {7, InstrClass::IntMul}},
    {Opcode::Ld,      "ld",      {7, InstrClass::Load, 8}},
    {Opcode::St,      "st",      {7, InstrClass::Store, 8}},
    {Opcode::Lb,      "lb",      {7, InstrClass::Load, 1}},
    {Opcode::Sb,      "sb",      {7, InstrClass::Store, 1}},
    {Opcode::Lw,      "lw",      {7, InstrClass::Load, 4}},
    {Opcode::Sw,      "sw",      {7, InstrClass::Store, 4}},
    {Opcode::Beq,     "beq",     {7, InstrClass::Branch}},
    {Opcode::Bne,     "bne",     {7, InstrClass::Branch}},
    {Opcode::Blt,     "blt",     {7, InstrClass::Branch}},
    {Opcode::Bge,     "bge",     {7, InstrClass::Branch}},
    {Opcode::Bltu,    "bltu",    {7, InstrClass::Branch}},
};
// clang-format on

/** Traits indexed by opcode byte: one small table for the hot lookups. */
inline constexpr auto kOpcodeTraits = [] {
    std::array<OpcodeTraits, 256> t{};
    for (const OpcodeRow &r : kOpcodeRows)
        t[static_cast<u8>(r.op)] = r.traits;
    return t;
}();

} // namespace detail

/** Encoded length in bytes of an instruction with opcode @p op; 0 = bad. */
constexpr unsigned
opcodeLength(Opcode op)
{
    return detail::kOpcodeTraits[static_cast<u8>(op)].length;
}

/** True iff @p raw is a defined opcode byte. */
constexpr bool
opcodeValid(u8 raw)
{
    return detail::kOpcodeTraits[raw].length != 0;
}

/** Instruction class for scheduling/CFG purposes. */
constexpr InstrClass
opcodeClass(Opcode op)
{
    return detail::kOpcodeTraits[static_cast<u8>(op)].klass;
}

/** Access width in bytes of a memory opcode (0 for non-memory). */
constexpr unsigned
opcodeMemBytes(Opcode op)
{
    return detail::kOpcodeTraits[static_cast<u8>(op)].memBytes;
}

/** Mnemonic string for disassembly. */
constexpr const char *
opcodeName(Opcode op)
{
    for (const detail::OpcodeRow &r : detail::kOpcodeRows)
        if (r.op == op)
            return r.name;
    return "???";
}

/** True iff the class ends a basic block (any control transfer). */
inline bool
classIsControlFlow(InstrClass c)
{
    switch (c) {
      case InstrClass::Branch:
      case InstrClass::Jump:
      case InstrClass::Call:
      case InstrClass::CallIndirect:
      case InstrClass::JumpIndirect:
      case InstrClass::Return:
      case InstrClass::Halt:
        return true;
      default:
        return false;
    }
}

/** True iff the class is a computed (indirect) control transfer. */
inline bool
classIsComputed(InstrClass c)
{
    return c == InstrClass::CallIndirect || c == InstrClass::JumpIndirect;
}

} // namespace rev::isa

#endif // REV_ISA_OPCODES_HPP
