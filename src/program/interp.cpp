#include "program/interp.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"
#include "isa/codec.hpp"
#include "program/trace.hpp"

namespace rev::prog
{

using isa::Instr;
using isa::Opcode;

// ---------------------------------------------------------------------------
// StoreBuffer
// ---------------------------------------------------------------------------

void
StoreBuffer::push(SeqNum seq, Addr addr, u64 value, unsigned size)
{
    REV_ASSERT(queue_.empty() || queue_.back().seq <= seq,
               "StoreBuffer: out-of-order push");
    queue_.push_back({seq, addr, value, size});
    boundLo_ = std::min(boundLo_, addr);
    boundHi_ = std::max(boundHi_, addr + size);
}

void
StoreBuffer::resetBounds()
{
    if (queue_.empty()) {
        boundLo_ = kNoAddr;
        boundHi_ = 0;
    }
}

const StoreBuffer::Pending *
StoreBuffer::newestOverlap(Addr addr, unsigned size) const
{
    if (addr + size <= boundLo_ || addr >= boundHi_)
        return nullptr;
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it)
        if (it->overlaps(addr, size))
            return &*it;
    return nullptr;
}

u8
StoreBuffer::readByte(const SparseMemory &mem, Addr addr) const
{
    const Pending *p = newestOverlap(addr, 1);
    return p ? static_cast<u8>(p->value >> (8 * (addr - p->addr)))
             : mem.read8(addr);
}

bool
StoreBuffer::covers(Addr addr, unsigned size) const
{
    return newestOverlap(addr, size) != nullptr;
}

SeqNum
StoreBuffer::newestCoverSeq(Addr addr, unsigned size) const
{
    const Pending *p = newestOverlap(addr, size);
    return p ? p->seq : 0;
}

u64
StoreBuffer::read(const SparseMemory &mem, Addr addr, unsigned size) const
{
    if (!covers(addr, size))
        return mem.read(addr, size);
    u64 v = 0;
    for (unsigned i = size; i-- > 0;)
        v = (v << 8) | readByte(mem, addr + i);
    return v;
}

void
StoreBuffer::drain(SparseMemory &mem, SeqNum upTo)
{
    auto it = queue_.begin();
    for (; it != queue_.end() && it->seq <= upTo; ++it)
        mem.write(it->addr, it->value, it->size);
    queue_.erase(queue_.begin(), it);
    resetBounds();
}

void
StoreBuffer::squash(SeqNum from)
{
    while (!queue_.empty() && queue_.back().seq >= from)
        queue_.pop_back();
    resetBounds();
}

// ---------------------------------------------------------------------------
// DecodeCache
// ---------------------------------------------------------------------------

void
DecodeCache::clear()
{
    pages_.clear();
    pageOrder_.clear();
    lastPageNo_ = kNoAddr;
    lastPage_ = nullptr;
    memEpoch_ = ~u64{0};
    spanPages_.clear();
}

std::vector<u64>
DecodeCache::touchedPages() const
{
    std::vector<u64> out = pageOrder_;
    for (u64 p : spanPages_)
        if (!pages_.contains(p))
            out.push_back(p);
    return out;
}

DecodeCache::CodePage &
DecodeCache::switchPage(const SparseMemory &mem, u64 page_no)
{
    if (mem.epoch() != memEpoch_) {
        // The page set was replaced wholesale (e.g. rollback): every
        // cached PageView may dangle. Start over.
        clear();
        memEpoch_ = mem.epoch();
    }
    CodePage *cp = pages_.find(page_no);
    if (!cp) {
        pageOrder_.push_back(page_no);
        cp = &pages_[page_no];
    }
    // Inserting may move every entry, so only the newest is remembered.
    lastPageNo_ = page_no;
    lastPage_ = cp;
    return *cp;
}

void
DecodeCache::refresh(const SparseMemory &mem, CodePage &cp, u64 page_no)
{
    cp.view = mem.pageView(page_no);
    cp.version = cp.view.version ? *cp.view.version : 0;
    cp.decoded = cp.view.version
                     ? &SparseMemory::annexOf<DecodedPage>(cp.view)
                     : nullptr;
}

const Predecoded *
DecodeCache::decodeSlot(const SparseMemory &mem, Addr pc, CodePage &cp)
{
    const u64 page_no = pc >> SparseMemory::kPageShift;
    const u64 off = pc & (SparseMemory::kPageSize - 1);
    DecodedPage *dp = cp.decoded;

    u8 raw[8];
    mem.readBytes(pc, raw, sizeof(raw));
    const auto decoded = isa::decode(raw, sizeof(raw));

    // The decode result depends on bytes [pc, pc+len) — just the opcode
    // byte when it is not a defined opcode. Cache only when all deciding
    // bytes sit inside this page; otherwise a write to the *next* page
    // could change the instruction without touching this page's version.
    const unsigned declen =
        decoded ? decoded->length()
                : (isa::opcodeValid(raw[0])
                       ? opcodeLength(static_cast<Opcode>(raw[0]))
                       : 1);
    const bool cacheable = dp && off + declen <= SparseMemory::kPageSize;
    if (off + declen > SparseMemory::kPageSize &&
        std::find(spanPages_.begin(), spanPages_.end(), page_no + 1) ==
            spanPages_.end())
        spanPages_.push_back(page_no + 1);

    if (!decoded) {
        if (cacheable)
            dp->state[off].store(DecodedPage::kInvalid,
                                 std::memory_order_relaxed);
        return nullptr;
    }

    Predecoded pd;
    pd.ins = *decoded;
    pd.len = static_cast<u8>(decoded->length());
    pd.use = isa::regUse(*decoded);
    // Claim the slot; a thread that loses the race to another filler
    // returns its own (identical) decode uncached.
    u8 expected = DecodedPage::kUnknown;
    if (cacheable && dp->state[off].compare_exchange_strong(
                         expected, DecodedPage::kBusy,
                         std::memory_order_acquire,
                         std::memory_order_relaxed)) {
        dp->slots[off].pd = pd;
        dp->state[off].store(DecodedPage::kValid, std::memory_order_release);
        return &dp->slots[off].pd;
    }
    scratch_ = pd;
    return &scratch_;
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

Machine::Machine(const Program &program, SparseMemory &mem)
    : pc_(program.entry()), mem_(mem)
{
    regs_.fill(0);
    regs_[isa::kRegSp] = Program::initialSp();
}

ExecRecord
Machine::step(StoreBuffer *sb, SeqNum seq)
{
    return replayer_ ? replayStep() : stepDirect(sb, seq);
}

ExecRecord
Machine::stepDirect(StoreBuffer *sb, SeqNum seq)
{
    ExecRecord rec;
    rec.pc = pc_;

    if (halted_) {
        rec.halted = true;
        return rec;
    }

    const Predecoded *pd = dcache_.lookup(mem_, pc_);
    if (!pd) {
        rec.invalid = true;
        rec.halted = true;
        halted_ = true;
        if (recorder_)
            recorder_->markInvalid();
        return rec;
    }
    // Work from the record's copy: a store below may write this page and
    // drop (or unshare) the decoded slot pd points into.
    rec.ins = pd->ins;
    rec.use = pd->use;
    const Instr &ins = rec.ins;
    const Addr fall = pc_ + pd->len;
    rec.nextPc = fall;

    auto wr = [&](u64 v) { setReg(ins.rd, v); };
    const u64 a = regs_[ins.rs1];
    const u64 b = regs_[ins.rs2];
    const i64 simm = static_cast<i64>(ins.imm);
    const u64 zimm = static_cast<u32>(ins.imm);
    auto fp = [](u64 v) { return std::bit_cast<double>(v); };
    auto fpu = [](double d) { return std::bit_cast<u64>(d); };

    auto doStore = [&](Addr addr, u64 value, unsigned size = 8) {
        rec.isStore = true;
        rec.memAddr = addr;
        rec.memSize = size;
        rec.storeValue = value;
        if (sb)
            sb->push(seq, addr, value, size);
        else
            mem_.write(addr, value, size);
    };
    auto doLoad = [&](Addr addr, unsigned size = 8) {
        rec.isLoad = true;
        rec.memAddr = addr;
        rec.memSize = size;
        if (sb && recorder_)
            if (const SeqNum s = sb->newestCoverSeq(addr, size))
                rec.coverDist = seq - s;
        const u64 v = sb ? sb->read(mem_, addr, size) : mem_.read(addr, size);
        rec.loadValue = v;
        return v;
    };

    switch (ins.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted_ = true;
        rec.halted = true;
        rec.nextPc = pc_;
        break;
      case Opcode::Ret: {
        const Addr sp = regs_[isa::kRegSp];
        rec.nextPc = doLoad(sp);
        regs_[isa::kRegSp] = sp + 8;
        break;
      }
      case Opcode::CallR:
      case Opcode::Call: {
        const Addr target = ins.op == Opcode::Call
                                ? ins.directTarget(pc_)
                                : regs_[ins.rs1];
        const Addr sp = regs_[isa::kRegSp] - 8;
        regs_[isa::kRegSp] = sp;
        doStore(sp, fall);
        rec.nextPc = target;
        break;
      }
      case Opcode::JmpR:
        rec.nextPc = regs_[ins.rs1];
        break;
      case Opcode::Jmp:
        rec.nextPc = ins.directTarget(pc_);
        break;
      case Opcode::Syscall:
        rec.isSyscall = true;
        rec.syscallNo = static_cast<u8>(ins.imm);
        break;

      case Opcode::Add: wr(a + b); break;
      case Opcode::Sub: wr(a - b); break;
      case Opcode::Mul: wr(a * b); break;
      case Opcode::Divu: wr(b == 0 ? 0 : a / b); break;
      case Opcode::And: wr(a & b); break;
      case Opcode::Or: wr(a | b); break;
      case Opcode::Xor: wr(a ^ b); break;
      case Opcode::Shl: wr(a << (b & 63)); break;
      case Opcode::Shr: wr(a >> (b & 63)); break;
      case Opcode::Slt:
        wr(static_cast<i64>(a) < static_cast<i64>(b) ? 1 : 0);
        break;
      case Opcode::Sltu: wr(a < b ? 1 : 0); break;
      case Opcode::Fadd: wr(fpu(fp(a) + fp(b))); break;
      case Opcode::Fsub: wr(fpu(fp(a) - fp(b))); break;
      case Opcode::Fmul: wr(fpu(fp(a) * fp(b))); break;
      case Opcode::Fdiv: wr(fpu(fp(a) / fp(b))); break;

      case Opcode::Movi: wr(static_cast<u64>(simm)); break;
      case Opcode::Lui: wr(zimm << 32); break;

      case Opcode::Addi: wr(a + static_cast<u64>(simm)); break;
      case Opcode::Andi: wr(a & zimm); break;
      case Opcode::Ori: wr(a | zimm); break;
      case Opcode::Xori: wr(a ^ zimm); break;
      case Opcode::Shli: wr(a << (ins.imm & 63)); break;
      case Opcode::Shri: wr(a >> (ins.imm & 63)); break;
      case Opcode::Slti:
        wr(static_cast<i64>(a) < simm ? 1 : 0);
        break;
      case Opcode::Muli: wr(a * static_cast<u64>(simm)); break;

      case Opcode::Ld:
        wr(doLoad(a + static_cast<u64>(simm)));
        break;
      case Opcode::St:
        doStore(a + static_cast<u64>(simm), regs_[ins.rd]);
        break;
      case Opcode::Lb:
        wr(doLoad(a + static_cast<u64>(simm), 1));
        break;
      case Opcode::Sb:
        doStore(a + static_cast<u64>(simm), regs_[ins.rd] & 0xff, 1);
        break;
      case Opcode::Lw:
        wr(doLoad(a + static_cast<u64>(simm), 4));
        break;
      case Opcode::Sw:
        doStore(a + static_cast<u64>(simm), regs_[ins.rd] & 0xffffffff, 4);
        break;

      case Opcode::Beq: rec.taken = a == b; goto branch;
      case Opcode::Bne: rec.taken = a != b; goto branch;
      case Opcode::Blt:
        rec.taken = static_cast<i64>(a) < static_cast<i64>(b);
        goto branch;
      case Opcode::Bge:
        rec.taken = static_cast<i64>(a) >= static_cast<i64>(b);
        goto branch;
      case Opcode::Bltu:
        rec.taken = a < b;
        goto branch;
      branch:
        if (rec.taken)
            rec.nextPc = ins.directTarget(pc_);
        break;
    }

    pc_ = rec.nextPc;
    if (recorder_)
        recorder_->record(rec, rec.coverDist);
    return rec;
}

u64
Machine::replayConsumed() const
{
    return replayer_ ? replayer_->consumed() : 0;
}

/**
 * Re-derive one ExecRecord from the trace: decode the (unchanged) code
 * image through the cache, then read only the data-dependent events the
 * recorder emitted for this opcode. No architectural state beyond the PC
 * is maintained — register values, load values, and store values are
 * never timing inputs, and replay applies no stores.
 */
ExecRecord
Machine::replayStep()
{
    ExecRecord rec;
    rec.pc = pc_;

    if (halted_) {
        rec.halted = true;
        return rec;
    }
    REV_ASSERT(!replayer_->exhausted(),
               "trace replay: stepped past the recorded instruction stream");

    const Predecoded *pd = dcache_.lookup(mem_, pc_);
    REV_ASSERT(pd, "trace replay: undecodable bytes at recorded pc");
    const Instr &ins = pd->ins;
    rec.ins = ins;
    rec.use = pd->use;
    rec.nextPc = pc_ + pd->len;

    auto load = [&](unsigned size) {
        rec.isLoad = true;
        rec.memAddr = replayer_->readMemAddr();
        rec.memSize = size;
        rec.coverDist = replayer_->readCoverDist();
    };
    auto store = [&](unsigned size) {
        rec.isStore = true;
        rec.memAddr = replayer_->readMemAddr();
        rec.memSize = size;
    };

    switch (ins.op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
        rec.taken = replayer_->readTaken();
        if (rec.taken)
            rec.nextPc = ins.directTarget(pc_);
        break;
      case Opcode::Ld: load(8); break;
      case Opcode::Lb: load(1); break;
      case Opcode::Lw: load(4); break;
      case Opcode::St: store(8); break;
      case Opcode::Sb: store(1); break;
      case Opcode::Sw: store(4); break;
      case Opcode::Ret:
        load(8);
        rec.nextPc = replayer_->readNextPc(pc_);
        break;
      case Opcode::Call:
        store(8);
        rec.nextPc = ins.directTarget(pc_);
        break;
      case Opcode::CallR:
        store(8);
        rec.nextPc = replayer_->readNextPc(pc_);
        break;
      case Opcode::JmpR:
        rec.nextPc = replayer_->readNextPc(pc_);
        break;
      case Opcode::Jmp:
        rec.nextPc = ins.directTarget(pc_);
        break;
      case Opcode::Halt:
        halted_ = true;
        rec.halted = true;
        rec.nextPc = pc_;
        break;
      case Opcode::Syscall:
        rec.isSyscall = true;
        rec.syscallNo = static_cast<u8>(ins.imm);
        break;
      default:
        break; // plain ALU / immediate: fall-through next pc, no events
    }

    replayer_->advance();
    pc_ = rec.nextPc;
    return rec;
}

u64
runToHalt(Machine &machine, u64 max_instrs)
{
    u64 count = 0;
    while (!machine.halted() && count < max_instrs) {
        machine.step();
        ++count;
    }
    return count;
}

} // namespace rev::prog
