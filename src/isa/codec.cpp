#include "isa/codec.hpp"

#include "common/logging.hpp"

namespace rev::isa
{

unsigned
encode(const Instr &ins, std::vector<u8> &out)
{
    const detail::Layout &f = detail::kLayouts[static_cast<u8>(ins.op)];
    if (f.len == 0)
        panic("encode: undefined opcode ", static_cast<int>(ins.op));

    u8 buf[8] = {static_cast<u8>(ins.op)};
    if (f.rd)
        buf[f.rd] = ins.rd;
    if (f.rs1)
        buf[f.rs1] = ins.rs1;
    if (f.rs2)
        buf[f.rs2] = ins.rs2;
    const u32 imm = static_cast<u32>(ins.imm);
    for (unsigned b = 0; b < f.immBytes; ++b)
        buf[f.imm + b] = static_cast<u8>(imm >> (8 * b));
    out.insert(out.end(), buf, buf + f.len);
    return f.len;
}

} // namespace rev::isa
