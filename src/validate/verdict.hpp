/**
 * @file
 * The commit-time block rules of every backend, and the violation-reason
 * builders, shared by the in-core validators and the StreamVerifier.
 *
 * The attestation split (see stream.hpp) requires the standalone
 * StreamVerifier to render verdicts *bit-identical* to the in-core
 * backends — the same outcome, the same human-readable reason string
 * the red-team oracle and the session reports compare, the same
 * counters. Both halves call the rules and the builders below, so the
 * verdicts cannot drift: what differs between them is only where the
 * reference material comes from (the SC/SAG table walk in the core, a
 * RefStore lookup in the verifier) and what else the core models
 * (timing, shadow-stack spill traffic).
 *
 * The rules allocate and format nothing on the passing path: a check
 * returns a Finding, and a failing Finding renders its reason only when
 * the caller asks for it.
 */

#ifndef REV_VALIDATE_VERDICT_HPP
#define REV_VALIDATE_VERDICT_HPP

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "crypto/cubehash.hpp"
#include "isa/opcodes.hpp"
#include "sig/mode.hpp"

namespace rev::prog
{
class Cfg;
}

namespace rev::validate
{

/**
 * How return edges are authenticated.
 */
enum class ReturnValidation : u8
{
    /**
     * The paper's low-overhead scheme (Sec. V.A): the RET address is
     * latched; the next block's table entry lists its legitimate RET
     * predecessors. No shadow structure, scales to any call depth, but
     * predecessor lists cost table space and MRU partial misses.
     */
    DelayedPredecessor = 0,

    /**
     * Conventional shadow call stack (the alternative the paper argues
     * against, cf. Branch Regulation [35]): CALLs push the expected
     * return site into a hardware stack; RETs must match the popped
     * entry. Overflow spills are counted (and charged a memory
     * round-trip), underflow is a violation.
     */
    ShadowStack = 1,
};

namespace verdict
{

// --- trusted services (Sec. VII) -----------------------------------------

/** The protected system call that suspends validation (trusted
 *  self-modifying code)... */
inline constexpr u8 kSuspendService = 1;
/** ...and the one that resumes it. */
inline constexpr u8 kResumeService = 2;

/**
 * Apply system call @p service to the validation switch @p enabled.
 * @return whether @p service is one of the trusted services (and so
 *         belongs in the measurement stream).
 */
bool applyService(u8 service, bool &enabled);

// --- block findings --------------------------------------------------------

/** The outcome of one block check: Pass, or the first rule it broke. */
struct Finding
{
    enum class Kind : u8
    {
        Pass,
        // REV
        NoReference,
        HashMismatch,
        BadReturn,
        IllegalTransfer,
        ShadowUnderflow,
        ShadowMismatch,
        // LO-FAT
        Unattested,
        BadReturnSite,
        IllegalEdge,
    };

    Kind kind = Kind::Pass;
    Addr addr = 0;     ///< the address the reason names
    Addr expected = 0; ///< ShadowMismatch: the return site on the stack

    bool passed() const { return kind == Kind::Pass; }

    /** The violation reason, without the block suffix (bbSuffix()).
     *  Only meaningful for a failing finding. */
    std::string reason() const;
};

// --- REV (Sec. IV, V) -----------------------------------------------------

/** One committed block as REV's commit rule sees it. */
struct RevBlock
{
    Addr term = 0;
    Addr end = 0; ///< fall-through: the return site a CALL pushes
    isa::InstrClass termClass = isa::InstrClass::Halt;
    Addr target = 0; ///< the address control actually went to
    u32 digest = 0;  ///< CHG digest of the executed bytes
};

/** The reference entry the block is checked against. */
struct RevReference
{
    bool found = false;
    bool termSeen = false; ///< terminator known, but no unit matched
    u32 hash = 0;
    std::span<const Addr> targets;
    std::span<const Addr> preds; ///< legitimate RET predecessors
};

/** Per-thread return-checking state: the Sec. V.A latch and the shadow
 *  call stack. */
struct RevReturnState
{
    std::optional<Addr> pendingReturn;
    std::vector<Addr> shadowStack;
};

/** REV's commit rule for one validation mode and return scheme. */
class RevRule
{
  public:
    RevRule() = default;
    RevRule(sig::ValidationMode mode, ReturnValidation returns)
        : mode_(mode), returns_(returns)
    {
    }

    /** Whether a block ending in @p c is validated at all: CFI-only
     *  checks computed transfers and returns only (Sec. V.D). */
    bool checksBlock(isa::InstrClass c) const;

    /** Whether the block's actual target must be in the entry's target
     *  list: always in CFI-only, computed transfers in Full, and every
     *  non-return branch in Aggressive. */
    bool checksTarget(isa::InstrClass c) const;

    /** The RET whose legitimate successor the next block must be (its
     *  entry lists it as a predecessor), if any. */
    std::optional<Addr> predecessorToCheck(const RevReturnState &st) const;

    /**
     * Authenticate @p b against @p ref and advance @p st: the latch arms
     * on RET; the shadow stack pushes on CALL and pops on RET (also when
     * the popped site mismatches).
     */
    Finding check(const RevBlock &b, const RevReference &ref,
                  RevReturnState &st) const;

  private:
    sig::ValidationMode mode_ = sig::ValidationMode::Full;
    ReturnValidation returns_ = ReturnValidation::DelayedPredecessor;
};

// --- LO-FAT ---------------------------------------------------------------

/** The taken edge @p term -> @p target must leave some block of the
 *  attested @p cfg (null: the code is in no attested module) that ends
 *  at @p term. */
Finding checkLoFatEdge(const prog::Cfg *cfg, Addr term, Addr target);

/** The measurement-chain link
 *  H(chain || start || term || target || code digest). */
crypto::Digest foldChain(const crypto::Digest &chain, Addr start, Addr term,
                         Addr target, u32 digest, u32 rounds);

// --- reason builders ------------------------------------------------------

/** Hex-format @p a the way every validator reason does ("0x1f00"). */
std::string hex(Addr a);

/** The " (bb 0xS..0xT)" suffix appended to every block-level reason. */
std::string bbSuffix(Addr start, Addr term);

// Stream-transport reasons (StreamVerifier only; block-level reasons come
// from Finding::reason()).
std::string reasonTruncatedStream();
std::string reasonMalformedStream();
std::string reasonChainDivergence();
std::string reasonBlockCountMismatch(u64 claimed, u64 verified);
std::string reasonMissingSpill();
std::string reasonUnexpectedSpill();
std::string reasonSpillSizeMismatch(u64 claimed, u64 expected);

} // namespace verdict
} // namespace rev::validate

#endif // REV_VALIDATE_VERDICT_HPP
