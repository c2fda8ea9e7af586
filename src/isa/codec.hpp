/**
 * @file
 * Byte-exact RVX encoder / decoder.
 *
 * One constexpr table, indexed by the opcode byte, gives each opcode's
 * encoded length and the byte offset of each operand field. encode() and
 * decode() both read it, so the two directions cannot disagree, and an
 * undefined opcode byte maps to the reject entry (length 0).
 */

#ifndef REV_ISA_CODEC_HPP
#define REV_ISA_CODEC_HPP

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "isa/instr.hpp"

namespace rev::isa
{

namespace detail
{

/**
 * Byte layout of one encoding. Field offsets count from the opcode byte;
 * 0 means the field is absent (byte 0 is always the opcode). The
 * immediate is a little-endian imm32 or a zero-extended imm8.
 */
struct Layout
{
    u8 len = 0; ///< encoded bytes; 0 = undefined opcode (reject)
    u8 rd = 0;
    u8 rs1 = 0;
    u8 rs2 = 0;
    u8 imm = 0;
    u8 immBytes = 0; ///< 0, 1 or 4
};

/**
 * The layout of an opcode with traits @p t. The length picks the format;
 * two lengths hold two formats each, which the class tells apart.
 */
constexpr Layout
layoutFor(const OpcodeTraits &t)
{
    switch (t.length) {
      case 1: // op
        return {1};
      case 2: // op, imm8 | op, rs1
        return t.klass == InstrClass::Syscall ? Layout{2, 0, 0, 0, 1, 1}
                                              : Layout{2, 0, 1};
      case 4: // op, rd, rs1, rs2
        return {4, 1, 2, 3};
      case 5: // op, imm32
        return {5, 0, 0, 0, 1, 4};
      case 6: // op, rd, imm32
        return {6, 1, 0, 0, 2, 4};
      case 7: // op, rs1, rs2, imm32 | op, rd, rs1(base), imm32
        return t.klass == InstrClass::Branch ? Layout{7, 0, 1, 2, 3, 4}
                                             : Layout{7, 1, 2, 0, 3, 4};
      default:
        return {};
    }
}

/** Layouts indexed by opcode byte, derived from kOpcodeRows. */
inline constexpr auto kLayouts = [] {
    std::array<Layout, 256> t{};
    for (unsigned op = 0; op < 256; ++op)
        t[op] = layoutFor(kOpcodeTraits[op]);
    return t;
}();

static_assert([] {
    for (unsigned op = 0; op < 256; ++op)
        if (kLayouts[op].len != kOpcodeTraits[op].length)
            return false;
    return true;
}(), "every defined opcode needs a layout of its encoded length");

} // namespace detail

/** Append the encoding of @p ins to @p out; returns encoded length. */
unsigned encode(const Instr &ins, std::vector<u8> &out);

/**
 * Decode one instruction from @p bytes (with @p avail bytes available).
 * Returns std::nullopt on an undefined opcode byte, a truncated encoding
 * or a register field that names no architectural register.
 */
inline std::optional<Instr>
decode(const u8 *bytes, std::size_t avail)
{
    if (avail == 0)
        return std::nullopt;
    const detail::Layout &f = detail::kLayouts[bytes[0]];
    if (f.len == 0 || avail < f.len)
        return std::nullopt;

    Instr ins;
    ins.op = static_cast<Opcode>(bytes[0]);
    ins.rd = f.rd ? bytes[f.rd] : 0;
    ins.rs1 = f.rs1 ? bytes[f.rs1] : 0;
    ins.rs2 = f.rs2 ? bytes[f.rs2] : 0;
    if (f.immBytes == 4) {
        const u8 *p = bytes + f.imm;
        ins.imm = static_cast<i32>(
            static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
            (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24));
    } else if (f.immBytes == 1) {
        ins.imm = bytes[f.imm];
    }
    if (ins.rd >= kNumArchRegs || ins.rs1 >= kNumArchRegs ||
        ins.rs2 >= kNumArchRegs)
        return std::nullopt;
    return ins;
}

} // namespace rev::isa

#endif // REV_ISA_CODEC_HPP
