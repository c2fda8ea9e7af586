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
    for (unsigned i = 0; i < size; ++i) {
        auto &bv = bytes_[addr + i];
        bv.value = static_cast<u8>(value >> (8 * i));
        ++bv.refs;
    }
    boundLo_ = std::min(boundLo_, addr);
    boundHi_ = std::max(boundHi_, addr + size);
}

void
StoreBuffer::resetBounds()
{
    if (bytes_.empty()) {
        boundLo_ = kNoAddr;
        boundHi_ = 0;
    }
}

u8
StoreBuffer::readByte(const SparseMemory &mem, Addr addr) const
{
    if (bytes_.empty() || addr < boundLo_ || addr >= boundHi_)
        return mem.read8(addr);
    auto it = bytes_.find(addr);
    return it != bytes_.end() ? it->second.value : mem.read8(addr);
}

bool
StoreBuffer::covers(Addr addr, unsigned size) const
{
    if (bytes_.empty() || addr + size <= boundLo_ || addr >= boundHi_)
        return false;
    for (unsigned i = 0; i < size; ++i)
        if (bytes_.count(addr + i))
            return true;
    return false;
}

SeqNum
StoreBuffer::newestCoverSeq(Addr addr, unsigned size) const
{
    if (bytes_.empty() || addr + size <= boundLo_ || addr >= boundHi_)
        return 0;
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it)
        if (addr < it->addr + it->size && it->addr < addr + size)
            return it->seq;
    return 0;
}

u64
StoreBuffer::read64(const SparseMemory &mem, Addr addr) const
{
    if (!covers(addr, 8))
        return mem.read64(addr);
    u64 v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | readByte(mem, addr + i);
    return v;
}

void
StoreBuffer::removeBytes(const Pending &p)
{
    for (unsigned i = 0; i < p.size; ++i) {
        auto it = bytes_.find(p.addr + i);
        REV_ASSERT(it != bytes_.end(), "StoreBuffer: missing byte view");
        if (--it->second.refs == 0)
            bytes_.erase(it);
    }
}

void
StoreBuffer::drain(SparseMemory &mem, SeqNum upTo)
{
    while (!queue_.empty() && queue_.front().seq <= upTo) {
        const Pending p = queue_.front();
        queue_.pop_front();
        mem.write(p.addr, p.value, p.size);
        removeBytes(p);
    }
    resetBounds();
}

void
StoreBuffer::squash(SeqNum from)
{
    while (!queue_.empty() && queue_.back().seq >= from) {
        const Pending p = queue_.back();
        queue_.pop_back();
        removeBytes(p);
        // Re-derive the forwarded value for bytes still covered by an older
        // pending store to the same location.
        for (const auto &older : queue_) {
            for (unsigned i = 0; i < older.size; ++i) {
                const Addr b = older.addr + i;
                if (b >= p.addr && b < p.addr + p.size) {
                    auto it = bytes_.find(b);
                    if (it != bytes_.end())
                        it->second.value =
                            static_cast<u8>(older.value >> (8 * i));
                }
            }
        }
    }
    resetBounds();
}

// ---------------------------------------------------------------------------
// DecodeCache
// ---------------------------------------------------------------------------

void
DecodeCache::clear()
{
    pages_.clear();
    lastPageNo_ = kNoAddr;
    lastPage_ = nullptr;
    memEpoch_ = ~u64{0};
    spanPages_.clear();
}

std::vector<u64>
DecodeCache::touchedPages() const
{
    std::vector<u64> out;
    out.reserve(pages_.size() + spanPages_.size());
    for (const auto &kv : pages_)
        out.push_back(kv.first);
    for (u64 p : spanPages_)
        if (!pages_.count(p))
            out.push_back(p);
    return out;
}

DecodeCache::CodePage &
DecodeCache::pageFor(const SparseMemory &mem, u64 page_no)
{
    if (mem.epoch() != memEpoch_) {
        // The page set was replaced wholesale (e.g. rollback): every
        // cached PageView may dangle. Start over.
        clear();
        memEpoch_ = mem.epoch();
    }
    if (page_no == lastPageNo_)
        return *lastPage_;
    CodePage &cp = pages_[page_no];
    lastPageNo_ = page_no;
    lastPage_ = &cp;
    return cp;
}

const Predecoded *
DecodeCache::lookup(const SparseMemory &mem, Addr pc)
{
    const u64 page_no = pc >> SparseMemory::kPageShift;
    const u64 off = pc & (SparseMemory::kPageSize - 1);
    CodePage &cp = pageFor(mem, page_no);

    // Revalidate against the live page version: any write to the page
    // since the last visit may have replaced the page object (a COW
    // clone) or dropped its decodes, so re-fetch both. An unpopulated
    // page is re-fetched on every visit (a write may have created it).
    if (!cp.view.version || *cp.view.version != cp.version) {
        cp.view = mem.pageView(page_no);
        cp.version = cp.view.version ? *cp.view.version : 0;
        cp.decoded = cp.view.version
                         ? &SparseMemory::annexOf<DecodedPage>(cp.view)
                         : nullptr;
    }

    DecodedPage *dp = cp.decoded;
    if (dp) {
        switch (dp->state[off].load(std::memory_order_acquire)) {
          case DecodedPage::kValid:
            return &dp->slots[off].pd;
          case DecodedPage::kInvalid:
            return nullptr;
          default:
            break;
        }
    }

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
        u64 v;
        if (sb && sb->covers(addr, size)) {
            if (recorder_)
                rec.coverDist = seq - sb->newestCoverSeq(addr, size);
            v = 0;
            for (unsigned i = size; i-- > 0;)
                v = (v << 8) | sb->readByte(mem_, addr + i);
        } else {
            v = mem_.read(addr, size);
        }
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
