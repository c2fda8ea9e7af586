/**
 * @file
 * Label-based RVX assembler producing linked Modules.
 *
 * This stands in for the trusted toolchain of the paper: it produces the
 * binary image, the symbol table, and the computed-branch target
 * annotations that the signature-table builder consumes.
 */

#ifndef REV_PROGRAM_ASSEMBLER_HPP
#define REV_PROGRAM_ASSEMBLER_HPP

#include <map>
#include <span>
#include <string>
#include <vector>

#include "isa/instr.hpp"
#include "program/module.hpp"

namespace rev::prog
{

/**
 * A label of one Assembler: a dense id into its label table. Anonymous
 * labels come from newLabel(); named() interns a name onto a label. A
 * default-constructed Label is no label: binding or resolving it is fatal.
 */
struct Label
{
    u32 id = ~u32{0};
};

/**
 * Two-pass assembler. Emit instructions and data with the emitters and
 * bind labels where they belong; label references are fixed up in
 * finalize(). Every reference takes a Label; the std::string overloads
 * intern the name with named() and take the same path. Only named labels
 * enter Module::symbols.
 */
class Assembler
{
  public:
    /** @param base Absolute load address of the module being assembled. */
    explicit Assembler(Addr base);

    /** A fresh anonymous label, not yet bound. */
    Label newLabel();

    /** The label called @p name, created unbound on first use. */
    Label named(const std::string &name);

    /** Bind @p l to the current emission point; binding twice is fatal. */
    void bind(Label l);

    /** Define @p name at the current emission point. */
    void label(const std::string &name) { bind(named(name)); }

    /** Current absolute emission address. */
    Addr here() const { return base_ + image_.size(); }

    // --- instruction emitters; each returns the instruction's address ---

    Addr nop();
    Addr halt();
    Addr ret();
    Addr syscall(u8 service);

    Addr add(u8 rd, u8 rs1, u8 rs2);
    Addr sub(u8 rd, u8 rs1, u8 rs2);
    Addr mul(u8 rd, u8 rs1, u8 rs2);
    Addr divu(u8 rd, u8 rs1, u8 rs2);
    Addr and_(u8 rd, u8 rs1, u8 rs2);
    Addr or_(u8 rd, u8 rs1, u8 rs2);
    Addr xor_(u8 rd, u8 rs1, u8 rs2);
    Addr shl(u8 rd, u8 rs1, u8 rs2);
    Addr shr(u8 rd, u8 rs1, u8 rs2);
    Addr slt(u8 rd, u8 rs1, u8 rs2);
    Addr sltu(u8 rd, u8 rs1, u8 rs2);
    Addr fadd(u8 rd, u8 rs1, u8 rs2);
    Addr fsub(u8 rd, u8 rs1, u8 rs2);
    Addr fmul(u8 rd, u8 rs1, u8 rs2);
    Addr fdiv(u8 rd, u8 rs1, u8 rs2);

    Addr movi(u8 rd, i32 imm);
    Addr lui(u8 rd, i32 imm);

    Addr addi(u8 rd, u8 rs1, i32 imm);
    Addr andi(u8 rd, u8 rs1, i32 imm);
    Addr ori(u8 rd, u8 rs1, i32 imm);
    Addr xori(u8 rd, u8 rs1, i32 imm);
    Addr shli(u8 rd, u8 rs1, i32 imm);
    Addr shri(u8 rd, u8 rs1, i32 imm);
    Addr slti(u8 rd, u8 rs1, i32 imm);
    Addr muli(u8 rd, u8 rs1, i32 imm);

    Addr ld(u8 rd, u8 base, i32 off);
    Addr st(u8 rs, u8 base, i32 off);
    Addr lb(u8 rd, u8 base, i32 off);
    Addr sb(u8 rs, u8 base, i32 off);
    Addr lw(u8 rd, u8 base, i32 off);
    Addr sw(u8 rs, u8 base, i32 off);

    Addr jmp(Label target);
    Addr call(Label target);
    Addr callr(u8 rs);
    Addr jmpr(u8 rs);

    Addr beq(u8 rs1, u8 rs2, Label target);
    Addr bne(u8 rs1, u8 rs2, Label target);
    Addr blt(u8 rs1, u8 rs2, Label target);
    Addr bge(u8 rs1, u8 rs2, Label target);
    Addr bltu(u8 rs1, u8 rs2, Label target);

    /** Load the absolute address of @p target into @p rd (lui+ori pair). */
    Addr la(u8 rd, Label target);

    // clang-format off
    Addr jmp(const std::string &t) { return jmp(named(t)); }
    Addr call(const std::string &t) { return call(named(t)); }
    Addr beq(u8 a, u8 b, const std::string &t) { return beq(a, b, named(t)); }
    Addr bne(u8 a, u8 b, const std::string &t) { return bne(a, b, named(t)); }
    Addr blt(u8 a, u8 b, const std::string &t) { return blt(a, b, named(t)); }
    Addr bge(u8 a, u8 b, const std::string &t) { return bge(a, b, named(t)); }
    Addr bltu(u8 a, u8 b, const std::string &t) { return bltu(a, b, named(t)); }
    Addr la(u8 rd, const std::string &t) { return la(rd, named(t)); }
    // clang-format on

    // --- data emission ---

    /** Mark the end of the code region; data follows. */
    void beginData();

    /** Emit a raw 64-bit little-endian word. */
    void word64(u64 value);

    /** Emit the absolute address of @p target as a 64-bit word. */
    void word64Label(Label target);
    void word64Label(const std::string &t) { word64Label(named(t)); }

    /** Emit @p count zero bytes. */
    void zeros(std::size_t count);

    /** Align the emission point to @p alignment bytes (nonzero). */
    void align(unsigned alignment);

    // --- computed-branch metadata ---

    /**
     * Declare that the computed transfer at @p site may target the given
     * labels. Resolved to addresses in finalize().
     */
    void annotateIndirect(Addr site, std::span<const Label> targets);
    void annotateIndirect(Addr site, const std::vector<std::string> &targets);

    /**
     * Resolve fixups and produce the linked module. The image and the
     * symbol table move into the module, so this may be called once.
     */
    Module finalize(const std::string &name, const std::string &entry_label);

  private:
    static constexpr Addr kUnbound = ~Addr{0};

    enum class FixupKind { PcRel32, Abs64, AbsHiLo };

    struct Fixup
    {
        FixupKind kind;
        std::size_t offset; ///< image offset of the field to patch
        Addr instrAddr;     ///< address of the referencing instruction
        Label target;
    };

    Addr emit(const isa::Instr &ins);
    Addr emitBranch(isa::Opcode op, u8 rs1, u8 rs2, Label target);
    /** "'name'" for a named label, "#id (anonymous)" otherwise. */
    std::string describe(Label l) const;

    Addr base_;
    std::vector<u8> image_;
    std::size_t codeSize_ = 0;
    bool inData_ = false;
    bool finalized_ = false;
    std::vector<Addr> labels_; ///< label id -> bound address, or kUnbound
    /**
     * Named labels: name -> label id while assembling; finalize() rewrites
     * each value to the bound address and moves the map into the module.
     */
    std::map<std::string, Addr> names_;
    std::vector<Fixup> fixups_;
    std::vector<std::pair<Addr, std::vector<Label>>> indirect_;
};

} // namespace rev::prog

#endif // REV_PROGRAM_ASSEMBLER_HPP
