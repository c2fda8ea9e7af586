/**
 * @file
 * Byte-exact encode/decode round-trip tests for the RVX codec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "isa/codec.hpp"

namespace rev::isa
{
namespace
{

std::vector<Opcode>
allOpcodes()
{
    std::vector<Opcode> ops;
    for (int raw = 0; raw < 256; ++raw)
        if (opcodeValid(static_cast<u8>(raw)))
            ops.push_back(static_cast<Opcode>(raw));
    return ops;
}

TEST(Codec, AllOpcodesHaveNamesAndClasses)
{
    for (Opcode op : allOpcodes()) {
        EXPECT_STRNE(opcodeName(op), "???");
        EXPECT_GT(opcodeLength(op), 0u);
    }
}

TEST(Codec, InvalidOpcodeBytesRejected)
{
    const u8 bad[] = {0xff, 0, 0, 0, 0, 0, 0};
    EXPECT_FALSE(decode(bad, sizeof(bad)).has_value());
    const u8 gap[] = {0x0b, 0, 0, 0, 0, 0, 0}; // hole after Syscall
    EXPECT_FALSE(decode(gap, sizeof(gap)).has_value());
}

TEST(Codec, TruncatedEncodingRejected)
{
    // A branch is 7 bytes; offer fewer.
    std::vector<u8> buf;
    encode({.op = Opcode::Beq, .rs1 = 1, .rs2 = 2, .imm = 0x100}, buf);
    ASSERT_EQ(buf.size(), 7u);
    for (std::size_t avail = 0; avail < 7; ++avail)
        EXPECT_FALSE(decode(buf.data(), avail).has_value())
            << "avail=" << avail;
    EXPECT_TRUE(decode(buf.data(), 7).has_value());
}

TEST(Codec, OutOfRangeRegisterRejected)
{
    std::vector<u8> buf;
    encode({.op = Opcode::Add, .rd = 1, .rs1 = 2, .rs2 = 3}, buf);
    buf[1] = 32; // rd out of range
    EXPECT_FALSE(decode(buf.data(), buf.size()).has_value());
}

/** Round-trip every opcode with randomized fields. */
class CodecRoundTrip : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(CodecRoundTrip, EncodeDecodeIdentity)
{
    const Opcode op = GetParam();
    Rng rng(static_cast<u64>(op) + 1000);

    for (int t = 0; t < 50; ++t) {
        Instr ins;
        ins.op = op;
        // Populate only the fields the format encodes, since others don't
        // survive the trip.
        switch (opcodeLength(op)) {
          case 1:
            break;
          case 2:
            if (op == Opcode::Syscall)
                ins.imm = static_cast<i32>(rng.below(256));
            else
                ins.rs1 = static_cast<u8>(rng.below(32));
            break;
          case 4:
            ins.rd = static_cast<u8>(rng.below(32));
            ins.rs1 = static_cast<u8>(rng.below(32));
            ins.rs2 = static_cast<u8>(rng.below(32));
            break;
          case 5:
            ins.imm = static_cast<i32>(rng.next());
            break;
          case 6:
            ins.rd = static_cast<u8>(rng.below(32));
            ins.imm = static_cast<i32>(rng.next());
            break;
          case 7:
            if (opcodeClass(op) == InstrClass::Branch) {
                ins.rs1 = static_cast<u8>(rng.below(32));
                ins.rs2 = static_cast<u8>(rng.below(32));
            } else {
                ins.rd = static_cast<u8>(rng.below(32));
                ins.rs1 = static_cast<u8>(rng.below(32));
            }
            ins.imm = static_cast<i32>(rng.next());
            break;
          default:
            FAIL() << "unexpected length";
        }

        std::vector<u8> buf;
        const unsigned len = encode(ins, buf);
        EXPECT_EQ(len, ins.length());
        auto back = decode(buf.data(), buf.size());
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, ins);
    }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, CodecRoundTrip,
                         ::testing::ValuesIn(allOpcodes()),
                         [](const auto &info) {
                             return std::string(opcodeName(info.param));
                         });

TEST(Codec, StreamOfInstructionsDecodesSequentially)
{
    // Encode a mixed stream and re-decode it instruction by instruction.
    std::vector<Instr> stream = {
        {.op = Opcode::Movi, .rd = 1, .imm = 42},
        {.op = Opcode::Add, .rd = 2, .rs1 = 1, .rs2 = 1},
        {.op = Opcode::St, .rd = 2, .rs1 = 30, .imm = -8},
        {.op = Opcode::Beq, .rs1 = 2, .rs2 = 0, .imm = 64},
        {.op = Opcode::Ret},
    };
    std::vector<u8> buf;
    for (const auto &ins : stream)
        encode(ins, buf);

    std::size_t off = 0;
    for (const auto &ins : stream) {
        auto got = decode(buf.data() + off, buf.size() - off);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, ins);
        off += got->length();
    }
    EXPECT_EQ(off, buf.size());
}

TEST(Codec, InstrPredicates)
{
    const Instr call{.op = Opcode::Call, .imm = 100};
    EXPECT_TRUE(call.isCall());
    EXPECT_TRUE(call.writesMem());
    EXPECT_TRUE(call.isControlFlow());
    EXPECT_FALSE(call.isComputed());

    const Instr ret{.op = Opcode::Ret};
    EXPECT_TRUE(ret.isReturn());
    EXPECT_TRUE(ret.readsMem());

    const Instr jmpr{.op = Opcode::JmpR, .rs1 = 4};
    EXPECT_TRUE(jmpr.isComputed());

    const Instr add{.op = Opcode::Add};
    EXPECT_FALSE(add.isControlFlow());
    EXPECT_FALSE(add.readsMem());
    EXPECT_FALSE(add.writesMem());
}

TEST(Codec, DirectTargetArithmetic)
{
    const Instr b{.op = Opcode::Beq, .imm = -16};
    EXPECT_EQ(b.directTarget(0x1000), 0xff0u);
    EXPECT_EQ(b.fallThrough(0x1000), 0x1007u);
}

/**
 * The switch-based decoder the table decoder replaced, kept verbatim in
 * behaviour as the oracle: a format per instruction class, then per
 * encoded length for the remaining ALU opcodes.
 */
std::optional<Instr>
switchDecode(const u8 *bytes, std::size_t avail)
{
    if (avail == 0 || !opcodeValid(bytes[0]))
        return std::nullopt;
    Instr ins;
    ins.op = static_cast<Opcode>(bytes[0]);
    const unsigned len = ins.length();
    if (avail < len)
        return std::nullopt;
    auto imm32 = [&](unsigned at) {
        return static_cast<i32>(static_cast<u32>(bytes[at]) |
                                (static_cast<u32>(bytes[at + 1]) << 8) |
                                (static_cast<u32>(bytes[at + 2]) << 16) |
                                (static_cast<u32>(bytes[at + 3]) << 24));
    };
    switch (opcodeClass(ins.op)) {
      case InstrClass::Nop:
      case InstrClass::Halt:
      case InstrClass::Return:
        break;
      case InstrClass::CallIndirect:
      case InstrClass::JumpIndirect:
        ins.rs1 = bytes[1];
        break;
      case InstrClass::Syscall:
        ins.imm = bytes[1];
        break;
      case InstrClass::Jump:
      case InstrClass::Call:
        ins.imm = imm32(1);
        break;
      case InstrClass::Load:
      case InstrClass::Store:
        ins.rd = bytes[1];
        ins.rs1 = bytes[2];
        ins.imm = imm32(3);
        break;
      case InstrClass::Branch:
        ins.rs1 = bytes[1];
        ins.rs2 = bytes[2];
        ins.imm = imm32(3);
        break;
      default:
        switch (len) {
          case 4:
            ins.rd = bytes[1];
            ins.rs1 = bytes[2];
            ins.rs2 = bytes[3];
            break;
          case 6:
            ins.rd = bytes[1];
            ins.imm = imm32(2);
            break;
          case 7:
            ins.rd = bytes[1];
            ins.rs1 = bytes[2];
            ins.imm = imm32(3);
            break;
          default:
            ADD_FAILURE() << "unclassified opcode " << int(bytes[0]);
            return std::nullopt;
        }
        break;
    }
    if (ins.rd >= kNumArchRegs || ins.rs1 >= kNumArchRegs ||
        ins.rs2 >= kNumArchRegs)
        return std::nullopt;
    return ins;
}

TEST(Codec, TableDecoderMatchesSwitchOracle)
{
    // Every first byte; bytes 1..3 (registers, or the low bytes of an
    // immediate) from values either side of the register limit and of a
    // sign bit; bytes 4..7 from a few immediates; every available length.
    const u8 fields[] = {0, 1, 31, 32, 0x7f, 0x80, 255};
    const u32 imms[] = {0, 1, 0x80000000, 0xdeadbeef, 0xffffffff};
    u64 checked = 0, valid = 0;
    for (unsigned op = 0; op < 256; ++op)
    for (u8 b1 : fields)
    for (u8 b2 : fields)
    for (u8 b3 : fields)
    for (u32 imm : imms) {
        const u8 buf[8] = {static_cast<u8>(op), b1, b2, b3,
                           static_cast<u8>(imm), static_cast<u8>(imm >> 8),
                           static_cast<u8>(imm >> 16),
                           static_cast<u8>(imm >> 24)};
        for (std::size_t avail = 0; avail <= sizeof(buf); ++avail) {
            const auto want = switchDecode(buf, avail);
            const auto got = decode(buf, avail);
            ++checked;
            ASSERT_EQ(got, want) << "op " << op << " avail " << avail;
            if (!want)
                continue;
            ++valid;
            // Every field is a whole byte range, so a valid instruction
            // re-encodes to the bytes it came from.
            std::vector<u8> enc;
            ASSERT_EQ(encode(*got, enc), got->length());
            ASSERT_TRUE(std::equal(enc.begin(), enc.end(), buf))
                << "op " << op;
            ASSERT_EQ(decode(enc.data(), enc.size()), got);
        }
    }
    EXPECT_EQ(checked, 256u * 7 * 7 * 7 * 5 * 9);
    EXPECT_GT(valid, 0u);
}

} // namespace
} // namespace rev::isa
