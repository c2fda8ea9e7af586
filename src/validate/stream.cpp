#include "validate/stream.hpp"

#include <cstring>

#include "validate/verdict.hpp"

namespace rev::validate
{

namespace
{

/** Varints longer than this cannot encode a u64 — reject as malformed. */
constexpr std::size_t kMaxVarintBytes = 10;

/**
 * Zigzag code of a wrapping address delta @p d read as two's complement
 * (small negative deltas get small codes). Deltas are taken modulo 2^64,
 * so no address pair overflows.
 */
constexpr u64
zigzagEncode(u64 d)
{
    return (d << 1) ^ (0 - (d >> 63));
}

/** Inverse of zigzagEncode: the wrapping delta to add to the base. */
constexpr u64
zigzagDecode(u64 v)
{
    return (v >> 1) ^ (0 - (v & 1));
}

void
put16(std::vector<u8> &out, u16 v)
{
    out.push_back(static_cast<u8>(v));
    out.push_back(static_cast<u8>(v >> 8));
}

void
put32(std::vector<u8> &out, u32 v)
{
    out.push_back(static_cast<u8>(v));
    out.push_back(static_cast<u8>(v >> 8));
    out.push_back(static_cast<u8>(v >> 16));
    out.push_back(static_cast<u8>(v >> 24));
}

u16
get16(const u8 *p)
{
    return static_cast<u16>(p[0] | (static_cast<u16>(p[1]) << 8));
}

u32
get32(const u8 *p)
{
    return p[0] | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

/**
 * Decode one LEB128 varint from [p, p+size). Returns bytes consumed, 0 if
 * the buffer ends mid-varint, or SIZE_MAX on an over-long encoding.
 */
std::size_t
getVarint(const u8 *p, std::size_t size, u64 *out)
{
    u64 v = 0;
    for (std::size_t i = 0; i < size && i < kMaxVarintBytes; ++i)
    {
        v |= static_cast<u64>(p[i] & 0x7f) << (7 * i);
        if ((p[i] & 0x80) == 0)
        {
            // The 10th byte may contribute only the final bit of a u64.
            if (i == kMaxVarintBytes - 1 && p[i] > 1)
                return SIZE_MAX;
            *out = v;
            return i + 1;
        }
    }
    return size >= kMaxVarintBytes ? SIZE_MAX : 0;
}

} // namespace

void
StreamWriter::putVarint(u64 v)
{
    while (v >= 0x80)
    {
        bytes_.push_back(static_cast<u8>(v) | 0x80);
        v >>= 7;
    }
    bytes_.push_back(static_cast<u8>(v));
}

void
StreamWriter::putZigzag(u64 v)
{
    putVarint(zigzagEncode(v));
}

void
StreamWriter::onHeader(const StreamHeader &header)
{
    put32(bytes_, kStreamMagic);
    put16(bytes_, header.version);
    bytes_.push_back(static_cast<u8>(header.backend));
    bytes_.push_back(static_cast<u8>(header.mode));
    bytes_.push_back(header.returnValidation);
    bytes_.push_back(static_cast<u8>(header.hashRounds));
    put16(bytes_, static_cast<u16>(header.bufferEntries));
    put16(bytes_, static_cast<u16>(header.entryBytes));
    put16(bytes_, static_cast<u16>(header.shadowStackEntries));
    bytes_.push_back(header.startEnabled ? 1 : 0);
    // Pad to the fixed header size; reserved for future fields.
    while (bytes_.size() < kStreamHeaderBytes)
        bytes_.push_back(0);
    prevEnd_ = 0;
}

void
StreamWriter::onEvent(const MeasurementEvent &ev)
{
    bytes_.push_back(static_cast<u8>(ev.kind));
    switch (ev.kind)
    {
    case EventKind::Block:
    {
        // flags: bits 0-4 terminator class, bit 5 artificial split,
        // bit 6 target == end (fallthrough — elide the target delta).
        const bool fallthrough = ev.target == ev.end;
        u8 flags = static_cast<u8>(ev.termClass) & 0x1f;
        if (ev.artificialSplit)
            flags |= 0x20;
        if (fallthrough)
            flags |= 0x40;
        bytes_.push_back(flags);
        putZigzag(ev.start - prevEnd_);
        putVarint(ev.term - ev.start);
        putVarint(ev.end - ev.term);
        if (!fallthrough)
            putZigzag(ev.target - ev.end);
        put32(bytes_, ev.codeDigest);
        prevEnd_ = ev.end;
        break;
    }
    case EventKind::Syscall:
        bytes_.push_back(ev.service);
        break;
    case EventKind::SpillMark:
        putVarint(ev.spillBytes);
        break;
    case EventKind::End:
        putVarint(ev.blockCount);
        bytes_.push_back(ev.hasChain ? 1 : 0);
        if (ev.hasChain)
            bytes_.insert(bytes_.end(), ev.chain.begin(), ev.chain.end());
        break;
    }
}

StreamReader::Status
StreamReader::tryHeader(const u8 *data, std::size_t size, StreamHeader *out)
{
    if (size < offset_ + kStreamHeaderBytes)
        return size < offset_ + 4 || get32(data + offset_) == kStreamMagic
                   ? Status::NeedMore
                   : Status::Malformed;
    const u8 *p = data + offset_;
    if (get32(p) != kStreamMagic)
        return Status::Malformed;
    StreamHeader h;
    h.version = get16(p + 4);
    if (h.version != kStreamVersion)
        return Status::Malformed;
    if (p[6] > static_cast<u8>(Backend::Null))
        return Status::Malformed;
    h.backend = static_cast<Backend>(p[6]);
    if (p[7] > static_cast<u8>(sig::ValidationMode::CfiOnly))
        return Status::Malformed;
    h.mode = static_cast<sig::ValidationMode>(p[7]);
    if (p[8] > static_cast<u8>(ReturnValidation::ShadowStack))
        return Status::Malformed;
    h.returnValidation = p[8];
    h.hashRounds = p[9];
    h.bufferEntries = get16(p + 10);
    h.entryBytes = get16(p + 12);
    h.shadowStackEntries = get16(p + 14);
    if (p[16] > 1)
        return Status::Malformed;
    h.startEnabled = p[16] == 1;
    offset_ += kStreamHeaderBytes;
    prevEnd_ = 0;
    *out = h;
    return Status::Ok;
}

StreamReader::Status
StreamReader::tryNext(const u8 *data, std::size_t size, MeasurementEvent *out)
{
    if (size <= offset_)
        return Status::NeedMore;
    const u8 *p = data + offset_;
    std::size_t avail = size - offset_;
    std::size_t pos = 0;

    // Pull one varint at `pos`; on failure set `st` and bail to the caller.
    Status st = Status::Ok;
    auto varint = [&](u64 *v) -> bool {
        std::size_t n = getVarint(p + pos, avail - pos, v);
        if (n == 0)
            st = Status::NeedMore;
        else if (n == SIZE_MAX)
            st = Status::Malformed;
        else
        {
            pos += n;
            return true;
        }
        return false;
    };

    MeasurementEvent ev;
    const u8 tag = p[pos++];
    switch (tag)
    {
    case static_cast<u8>(EventKind::Block):
    {
        ev.kind = EventKind::Block;
        if (avail < 2)
            return Status::NeedMore;
        const u8 flags = p[pos++];
        if ((flags & 0x1f) > static_cast<u8>(isa::InstrClass::Halt))
            return Status::Malformed;
        ev.termClass = static_cast<isa::InstrClass>(flags & 0x1f);
        ev.artificialSplit = (flags & 0x20) != 0;
        const bool fallthrough = (flags & 0x40) != 0;
        u64 startDelta = 0, termLen = 0, endLen = 0, targetDelta = 0;
        if (!varint(&startDelta) || !varint(&termLen) || !varint(&endLen))
            return st;
        if (!fallthrough && !varint(&targetDelta))
            return st;
        if (avail - pos < 4)
            return Status::NeedMore;
        ev.start = prevEnd_ + zigzagDecode(startDelta);
        ev.term = ev.start + termLen;
        ev.end = ev.term + endLen;
        ev.target =
            fallthrough ? ev.end : ev.end + zigzagDecode(targetDelta);
        ev.codeDigest = get32(p + pos);
        pos += 4;
        prevEnd_ = ev.end;
        break;
    }
    case static_cast<u8>(EventKind::Syscall):
        ev.kind = EventKind::Syscall;
        if (avail < 2)
            return Status::NeedMore;
        ev.service = p[pos++];
        break;
    case static_cast<u8>(EventKind::SpillMark):
        ev.kind = EventKind::SpillMark;
        if (!varint(&ev.spillBytes))
            return st;
        break;
    case static_cast<u8>(EventKind::End):
    {
        ev.kind = EventKind::End;
        if (!varint(&ev.blockCount))
            return st;
        if (avail - pos < 1)
            return Status::NeedMore;
        const u8 hasChain = p[pos++];
        if (hasChain > 1)
            return Status::Malformed;
        ev.hasChain = hasChain == 1;
        if (ev.hasChain)
        {
            if (avail - pos < ev.chain.size())
                return Status::NeedMore;
            std::memcpy(ev.chain.data(), p + pos, ev.chain.size());
            pos += ev.chain.size();
        }
        break;
    }
    default:
        return Status::Malformed;
    }

    offset_ += pos;
    *out = ev;
    return Status::Ok;
}

} // namespace rev::validate
