#include "isa/disasm.hpp"

#include <sstream>

namespace rev::isa
{

std::string
disassemble(const Instr &ins, Addr pc)
{
    std::ostringstream os;
    os << opcodeName(ins.op);
    const auto c = ins.klass();
    auto reg = [](u8 r) {
        std::string s = "r";
        s += std::to_string(r);
        return s;
    };
    auto hex = [](Addr a) {
        std::ostringstream h;
        h << "0x" << std::hex << a;
        return h.str();
    };

    switch (c) {
      case InstrClass::Nop:
      case InstrClass::Halt:
      case InstrClass::Return:
        break;
      case InstrClass::CallIndirect:
      case InstrClass::JumpIndirect:
        os << ' ' << reg(ins.rs1);
        break;
      case InstrClass::Syscall:
        os << ' ' << ins.imm;
        break;
      case InstrClass::Jump:
      case InstrClass::Call:
        os << ' ' << hex(ins.directTarget(pc));
        break;
      case InstrClass::Load:
        os << ' ' << reg(ins.rd) << ", [" << reg(ins.rs1) << (ins.imm >= 0 ? "+" : "")
           << ins.imm << ']';
        break;
      case InstrClass::Store:
        os << " [" << reg(ins.rs1) << (ins.imm >= 0 ? "+" : "") << ins.imm
           << "], " << reg(ins.rd);
        break;
      case InstrClass::Branch:
        os << ' ' << reg(ins.rs1) << ", " << reg(ins.rs2) << ", "
           << hex(ins.directTarget(pc));
        break;
      default:
        // ALU forms
        switch (ins.length()) {
          case 4:
            os << ' ' << reg(ins.rd) << ", " << reg(ins.rs1) << ", "
               << reg(ins.rs2);
            break;
          case 6:
            os << ' ' << reg(ins.rd) << ", " << ins.imm;
            break;
          case 7:
            os << ' ' << reg(ins.rd) << ", " << reg(ins.rs1) << ", "
               << ins.imm;
            break;
          default:
            break;
        }
    }
    return os.str();
}

} // namespace rev::isa
