#include "program/assembler.hpp"

#include "common/logging.hpp"
#include "isa/codec.hpp"

namespace rev::prog
{

using isa::Instr;
using isa::Opcode;

Assembler::Assembler(Addr base) : base_(base)
{
}

Label
Assembler::newLabel()
{
    labels_.push_back(kUnbound);
    return {static_cast<u32>(labels_.size() - 1)};
}

Label
Assembler::named(const std::string &name)
{
    const auto [it, fresh] = names_.try_emplace(name, labels_.size());
    if (fresh)
        return newLabel();
    return {static_cast<u32>(it->second)};
}

void
Assembler::bind(Label l)
{
    if (l.id >= labels_.size())
        fatal("assembler: label #", l.id, " is not this assembler's");
    if (labels_[l.id] != kUnbound)
        fatal("assembler: duplicate label ", describe(l));
    labels_[l.id] = here();
}

std::string
Assembler::describe(Label l) const
{
    for (const auto &[name, id] : names_)
        if (id == l.id)
            return "'" + name + "'";
    std::string s = "#";
    s += std::to_string(l.id);
    s += " (anonymous)";
    return s;
}

Addr
Assembler::emit(const Instr &ins)
{
    if (inData_)
        fatal("assembler: instruction emitted after beginData()");
    const Addr addr = here();
    isa::encode(ins, image_);
    codeSize_ = image_.size();
    return addr;
}

// clang-format off
Addr Assembler::nop() { return emit({.op = Opcode::Nop}); }
Addr Assembler::halt() { return emit({.op = Opcode::Halt}); }
Addr Assembler::ret() { return emit({.op = Opcode::Ret}); }

Addr
Assembler::syscall(u8 service)
{
    return emit({.op = Opcode::Syscall, .imm = service});
}

#define REV_ASM_R3(fn, opc)                                                 \
    Addr Assembler::fn(u8 rd, u8 rs1, u8 rs2)                               \
    {                                                                       \
        return emit({.op = Opcode::opc, .rd = rd, .rs1 = rs1, .rs2 = rs2}); \
    }

REV_ASM_R3(add, Add)
REV_ASM_R3(sub, Sub)
REV_ASM_R3(mul, Mul)
REV_ASM_R3(divu, Divu)
REV_ASM_R3(and_, And)
REV_ASM_R3(or_, Or)
REV_ASM_R3(xor_, Xor)
REV_ASM_R3(shl, Shl)
REV_ASM_R3(shr, Shr)
REV_ASM_R3(slt, Slt)
REV_ASM_R3(sltu, Sltu)
REV_ASM_R3(fadd, Fadd)
REV_ASM_R3(fsub, Fsub)
REV_ASM_R3(fmul, Fmul)
REV_ASM_R3(fdiv, Fdiv)
#undef REV_ASM_R3

Addr Assembler::movi(u8 rd, i32 imm) { return emit({.op = Opcode::Movi, .rd = rd, .imm = imm}); }
Addr Assembler::lui(u8 rd, i32 imm) { return emit({.op = Opcode::Lui, .rd = rd, .imm = imm}); }

#define REV_ASM_RI(fn, opc)                                                 \
    Addr Assembler::fn(u8 rd, u8 rs1, i32 imm)                              \
    {                                                                       \
        return emit({.op = Opcode::opc, .rd = rd, .rs1 = rs1, .imm = imm}); \
    }

REV_ASM_RI(addi, Addi)
REV_ASM_RI(andi, Andi)
REV_ASM_RI(ori, Ori)
REV_ASM_RI(xori, Xori)
REV_ASM_RI(shli, Shli)
REV_ASM_RI(shri, Shri)
REV_ASM_RI(slti, Slti)
REV_ASM_RI(muli, Muli)
#undef REV_ASM_RI
// clang-format on

Addr
Assembler::ld(u8 rd, u8 base, i32 off)
{
    return emit({.op = Opcode::Ld, .rd = rd, .rs1 = base, .imm = off});
}

Addr
Assembler::st(u8 rs, u8 base, i32 off)
{
    return emit({.op = Opcode::St, .rd = rs, .rs1 = base, .imm = off});
}

Addr
Assembler::lb(u8 rd, u8 base, i32 off)
{
    return emit({.op = Opcode::Lb, .rd = rd, .rs1 = base, .imm = off});
}

Addr
Assembler::sb(u8 rs, u8 base, i32 off)
{
    return emit({.op = Opcode::Sb, .rd = rs, .rs1 = base, .imm = off});
}

Addr
Assembler::lw(u8 rd, u8 base, i32 off)
{
    return emit({.op = Opcode::Lw, .rd = rd, .rs1 = base, .imm = off});
}

Addr
Assembler::sw(u8 rs, u8 base, i32 off)
{
    return emit({.op = Opcode::Sw, .rd = rs, .rs1 = base, .imm = off});
}

Addr
Assembler::jmp(Label target)
{
    const Addr addr = emit({.op = Opcode::Jmp});
    fixups_.push_back({FixupKind::PcRel32, addr - base_ + 1, addr, target});
    return addr;
}

Addr
Assembler::call(Label target)
{
    const Addr addr = emit({.op = Opcode::Call});
    fixups_.push_back({FixupKind::PcRel32, addr - base_ + 1, addr, target});
    return addr;
}

Addr
Assembler::callr(u8 rs)
{
    return emit({.op = Opcode::CallR, .rs1 = rs});
}

Addr
Assembler::jmpr(u8 rs)
{
    return emit({.op = Opcode::JmpR, .rs1 = rs});
}

Addr
Assembler::emitBranch(Opcode op, u8 rs1, u8 rs2, Label target)
{
    const Addr addr = emit({.op = op, .rs1 = rs1, .rs2 = rs2});
    fixups_.push_back({FixupKind::PcRel32, addr - base_ + 3, addr, target});
    return addr;
}

// clang-format off
Addr Assembler::beq(u8 a, u8 b, Label t) { return emitBranch(Opcode::Beq, a, b, t); }
Addr Assembler::bne(u8 a, u8 b, Label t) { return emitBranch(Opcode::Bne, a, b, t); }
Addr Assembler::blt(u8 a, u8 b, Label t) { return emitBranch(Opcode::Blt, a, b, t); }
Addr Assembler::bge(u8 a, u8 b, Label t) { return emitBranch(Opcode::Bge, a, b, t); }
Addr Assembler::bltu(u8 a, u8 b, Label t) { return emitBranch(Opcode::Bltu, a, b, t); }
// clang-format on

Addr
Assembler::la(u8 rd, Label target)
{
    // lui rd, hi32; ori rd, rd, lo32 -- patched as a pair in finalize().
    const Addr addr = emit({.op = Opcode::Lui, .rd = rd});
    emit({.op = Opcode::Ori, .rd = rd, .rs1 = rd});
    fixups_.push_back({FixupKind::AbsHiLo, addr - base_, addr, target});
    return addr;
}

void
Assembler::beginData()
{
    inData_ = true;
}

void
Assembler::word64(u64 value)
{
    inData_ = true;
    for (int i = 0; i < 8; ++i)
        image_.push_back(static_cast<u8>(value >> (8 * i)));
}

void
Assembler::word64Label(Label target)
{
    inData_ = true;
    const std::size_t off = image_.size();
    word64(0);
    fixups_.push_back({FixupKind::Abs64, off, base_ + off, target});
}

void
Assembler::zeros(std::size_t count)
{
    inData_ = true;
    image_.insert(image_.end(), count, 0);
}

void
Assembler::align(unsigned alignment)
{
    if (alignment == 0)
        fatal("assembler: align(0): alignment must be nonzero");
    while (image_.size() % alignment != 0) {
        if (inData_)
            image_.push_back(0);
        else
            nop();
    }
}

void
Assembler::annotateIndirect(Addr site, std::span<const Label> targets)
{
    indirect_.emplace_back(site,
                           std::vector<Label>(targets.begin(), targets.end()));
}

void
Assembler::annotateIndirect(Addr site,
                            const std::vector<std::string> &targets)
{
    std::vector<Label> labels;
    labels.reserve(targets.size());
    for (const std::string &t : targets)
        labels.push_back(named(t));
    annotateIndirect(site, labels);
}

Module
Assembler::finalize(const std::string &name, const std::string &entry_label)
{
    if (finalized_)
        fatal("assembler: module '", name, "' finalized twice");
    finalized_ = true;

    auto resolve = [&](Label l) -> Addr {
        const Addr a = l.id < labels_.size() ? labels_[l.id] : kUnbound;
        if (a == kUnbound)
            fatal("assembler: undefined label ", describe(l), " in module '",
                  name, "'");
        return a;
    };

    for (const auto &fix : fixups_) {
        const Addr target = resolve(fix.target);
        switch (fix.kind) {
          case FixupKind::PcRel32: {
            const i64 delta =
                static_cast<i64>(target) - static_cast<i64>(fix.instrAddr);
            if (delta < INT32_MIN || delta > INT32_MAX)
                fatal("assembler: branch to ", describe(fix.target),
                      " out of range");
            const u32 v = static_cast<u32>(static_cast<i32>(delta));
            for (int i = 0; i < 4; ++i)
                image_[fix.offset + i] = static_cast<u8>(v >> (8 * i));
            break;
          }
          case FixupKind::Abs64:
            for (int i = 0; i < 8; ++i)
                image_[fix.offset + i] = static_cast<u8>(target >> (8 * i));
            break;
          case FixupKind::AbsHiLo: {
            // Patch the imm32 of the LUI (offset+2) and the following ORI
            // (offset + 6 + 3). LUI shifts its immediate by 32.
            const u32 hi = static_cast<u32>(target >> 32);
            const u32 lo = static_cast<u32>(target);
            for (int i = 0; i < 4; ++i) {
                image_[fix.offset + 2 + i] = static_cast<u8>(hi >> (8 * i));
                image_[fix.offset + 6 + 3 + i] =
                    static_cast<u8>(lo >> (8 * i));
            }
            break;
          }
        }
    }

    Module mod;
    mod.name = name;
    mod.base = base_;
    mod.codeSize = codeSize_;
    mod.entry = entry_label.empty() ? base_ : resolve(named(entry_label));
    for (const auto &[site, labels] : indirect_) {
        auto &targets = mod.indirectTargets[site];
        for (Label l : labels)
            targets.push_back(resolve(l));
    }
    for (auto &[label, value] : names_)
        value = resolve({static_cast<u32>(value)});
    mod.symbols = std::move(names_);
    mod.image = std::move(image_);
    return mod;
}

} // namespace rev::prog
