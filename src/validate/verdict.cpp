#include "validate/verdict.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "program/cfg.hpp"

namespace rev::validate::verdict
{

using isa::InstrClass;
using sig::ValidationMode;

namespace
{

bool
contains(std::span<const Addr> v, Addr a)
{
    return std::find(v.begin(), v.end(), a) != v.end();
}

std::string
reasonHashMismatch()
{
    return "basic-block hash mismatch";
}

std::string
reasonNoReference()
{
    return "no reference signature for basic block";
}

std::string
reasonBadReturn(Addr from)
{
    return "return from " + hex(from) + " to unexpected site";
}

std::string
reasonIllegalTransfer(Addr target)
{
    return "illegal transfer to " + hex(target);
}

std::string
reasonShadowUnderflow()
{
    return "shadow stack underflow on return";
}

std::string
reasonShadowMismatch(Addr target, Addr expected)
{
    return "return to " + hex(target) + " violates shadow stack (expected " +
           hex(expected) + ")";
}

std::string
reasonUnattested(Addr term)
{
    return "unattested code at " + hex(term);
}

std::string
reasonBadReturnSite(Addr target)
{
    return "return to " + hex(target) + " not an attested return site";
}

std::string
reasonIllegalEdge(Addr target)
{
    return "control-flow edge to " + hex(target) +
           " absent from attested CFG";
}

} // namespace

bool
applyService(u8 service, bool &enabled)
{
    if (service == kSuspendService)
        enabled = false;
    else if (service == kResumeService)
        enabled = true;
    else
        return false;
    return true;
}

std::string
Finding::reason() const
{
    switch (kind) {
      case Kind::Pass: break;
      case Kind::NoReference: return reasonNoReference();
      case Kind::HashMismatch: return reasonHashMismatch();
      case Kind::BadReturn: return reasonBadReturn(addr);
      case Kind::IllegalTransfer: return reasonIllegalTransfer(addr);
      case Kind::ShadowUnderflow: return reasonShadowUnderflow();
      case Kind::ShadowMismatch: return reasonShadowMismatch(addr, expected);
      case Kind::Unattested: return reasonUnattested(addr);
      case Kind::BadReturnSite: return reasonBadReturnSite(addr);
      case Kind::IllegalEdge: return reasonIllegalEdge(addr);
    }
    return {};
}

bool
RevRule::checksBlock(InstrClass c) const
{
    return mode_ != ValidationMode::CfiOnly || isa::classIsComputed(c) ||
           c == InstrClass::Return;
}

bool
RevRule::checksTarget(InstrClass c) const
{
    return mode_ == ValidationMode::CfiOnly || isa::classIsComputed(c) ||
           (mode_ == ValidationMode::Aggressive && c != InstrClass::Return &&
            c != InstrClass::Halt);
}

std::optional<Addr>
RevRule::predecessorToCheck(const RevReturnState &st) const
{
    if (mode_ == ValidationMode::CfiOnly ||
        returns_ != ReturnValidation::DelayedPredecessor)
        return std::nullopt;
    return st.pendingReturn;
}

Finding
RevRule::check(const RevBlock &b, const RevReference &ref,
               RevReturnState &st) const
{
    using Kind = Finding::Kind;
    if (!ref.found)
        return {ref.termSeen ? Kind::HashMismatch : Kind::NoReference};
    if (mode_ != ValidationMode::CfiOnly && b.digest != ref.hash)
        return {Kind::HashMismatch};

    // Delayed return validation (Sec. V.A): this block was entered
    // following a return; its entry lists the legitimate RET predecessors.
    if (const std::optional<Addr> pred = predecessorToCheck(st)) {
        if (!contains(ref.preds, *pred))
            return {Kind::BadReturn, *pred};
        st.pendingReturn.reset();
    }

    if (checksTarget(b.termClass) && !contains(ref.targets, b.target))
        return {Kind::IllegalTransfer, b.target};

    if (mode_ == ValidationMode::CfiOnly)
        return {};
    if (returns_ == ReturnValidation::DelayedPredecessor) {
        // Arm the return latch for the next block.
        if (b.termClass == InstrClass::Return)
            st.pendingReturn = b.term;
        return {};
    }
    // Shadow call stack (the conventional alternative).
    if (b.termClass == InstrClass::Call ||
        b.termClass == InstrClass::CallIndirect) {
        st.shadowStack.push_back(b.end);
    } else if (b.termClass == InstrClass::Return) {
        if (st.shadowStack.empty())
            return {Kind::ShadowUnderflow};
        const Addr expected = st.shadowStack.back();
        st.shadowStack.pop_back();
        if (b.target != expected)
            return {Kind::ShadowMismatch, b.target, expected};
    }
    return {};
}

Finding
checkLoFatEdge(const prog::Cfg *cfg, Addr term, Addr target)
{
    using Kind = Finding::Kind;
    const std::span<const u32> ids =
        cfg ? cfg->blocksAtTerm(term) : std::span<const u32>{};
    if (ids.empty())
        return {Kind::Unattested, term};

    // The taken edge must appear in some attested block with this
    // terminator (Return succs are the statically derived return-site
    // set; Split succs the fall-through; Halt has no successor).
    bool edge_ok = false;
    bool any_successor = false;
    bool is_return = false;
    for (u32 id : ids) {
        const prog::BasicBlock &blk = cfg->blocks()[id];
        if (blk.kind == prog::TermKind::Halt) {
            edge_ok = true;
            continue;
        }
        any_successor = true;
        if (blk.kind == prog::TermKind::Return)
            is_return = true;
        if (contains(cfg->succs(blk), target))
            edge_ok = true;
    }
    if (!edge_ok && any_successor)
        return {is_return ? Kind::BadReturnSite : Kind::IllegalEdge, target};
    return {};
}

crypto::Digest
foldChain(const crypto::Digest &chain, Addr start, Addr term, Addr target,
          u32 digest, u32 rounds)
{
    u8 buf[sizeof(crypto::Digest) + 3 * sizeof(Addr) + sizeof(u32)];
    std::size_t off = 0;
    std::memcpy(buf + off, chain.data(), chain.size());
    off += chain.size();
    std::memcpy(buf + off, &start, sizeof(Addr));
    off += sizeof(Addr);
    std::memcpy(buf + off, &term, sizeof(Addr));
    off += sizeof(Addr);
    std::memcpy(buf + off, &target, sizeof(Addr));
    off += sizeof(Addr);
    std::memcpy(buf + off, &digest, sizeof(u32));
    off += sizeof(u32);
    return crypto::CubeHash::hash(buf, off, rounds);
}

std::string
hex(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

std::string
bbSuffix(Addr start, Addr term)
{
    return " (bb " + hex(start) + ".." + hex(term) + ")";
}

std::string
reasonTruncatedStream()
{
    return "truncated measurement stream";
}

std::string
reasonMalformedStream()
{
    return "malformed measurement stream";
}

std::string
reasonChainDivergence()
{
    return "measurement chain divergence";
}

std::string
reasonBlockCountMismatch(u64 claimed, u64 verified)
{
    return "measurement stream block count mismatch (stream says " +
           std::to_string(claimed) + ", verified " +
           std::to_string(verified) + ")";
}

std::string
reasonMissingSpill()
{
    return "missing measurement spill record";
}

std::string
reasonUnexpectedSpill()
{
    return "unexpected measurement spill record";
}

std::string
reasonSpillSizeMismatch(u64 claimed, u64 expected)
{
    return "measurement spill size mismatch (stream says " +
           std::to_string(claimed) + ", expected " +
           std::to_string(expected) + ")";
}

} // namespace rev::validate::verdict
