/**
 * @file
 * The measurement-stream wire format: the prover/verifier contract of the
 * attestation-as-a-service split.
 *
 * A prover-side MeasurementSource (source.hpp) emits a *session*: one
 * StreamHeader naming the backend, validation mode, and the measurement
 * parameters, followed by a sequence of MeasurementEvents — one Block
 * record per committed-and-measured basic block (the hash-chain link and
 * the taken CFG edge in one record), SpillMark records mirroring the
 * measurement buffer's ScFill drains, Syscall markers for the trusted
 * enable/disable services, and a final End record sealing the session
 * (block count, and for hash-chained backends the final chain value).
 *
 * A verifier-side StreamVerifier (stream_verifier.hpp) consumes exactly
 * this stream and renders the same verdict the in-core backend would.
 *
 * Encoding: a fixed 24-byte little-endian header, then tag-prefixed
 * events. Block addresses are delta-encoded (zigzag varints against the
 * previous block's end) so a typical block costs ~10 bytes on the wire —
 * the bytes/session figure the load generator reports. The decoder is
 * *total*: arbitrary bytes never crash it; it answers Ok, NeedMore
 * (honest truncation at an event boundary is distinguishable from
 * garbage), or Malformed. Bump kStreamVersion whenever the layout
 * changes; a verifier refuses sessions from a different version.
 */

#ifndef REV_VALIDATE_STREAM_HPP
#define REV_VALIDATE_STREAM_HPP

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "crypto/cubehash.hpp"
#include "isa/opcodes.hpp"
#include "sig/mode.hpp"
#include "validate/validator.hpp"

namespace rev::validate
{

/** "RVMS" little-endian. */
inline constexpr u32 kStreamMagic = 0x534d5652;

/** Bump when the header or event encoding changes. */
inline constexpr u16 kStreamVersion = 1;

/** Size of the fixed session header on the wire. */
inline constexpr std::size_t kStreamHeaderBytes = 24;

/**
 * Session preamble: everything a verifier needs to select and configure
 * the checking rules before the first event arrives.
 */
struct StreamHeader
{
    u16 version = kStreamVersion;
    Backend backend = Backend::Null;
    sig::ValidationMode mode = sig::ValidationMode::Full;
    u8 returnValidation = 0;  ///< validate::ReturnValidation enumerator
    u32 hashRounds = 5;       ///< CHG/chain CubeHash rounds
    u32 bufferEntries = 0;    ///< LO-FAT measurement-buffer capacity
    u32 entryBytes = 0;       ///< LO-FAT bytes per spilled record
    u32 shadowStackEntries = 0;
    bool startEnabled = true; ///< measurement active from the first block

    bool operator==(const StreamHeader &) const = default;
};

/** Event discriminator on the wire. */
enum class EventKind : u8
{
    Block = 1,     ///< one measured basic block: chain link + taken edge
    Syscall = 2,   ///< trusted service committed (1 suspends, 2 resumes)
    SpillMark = 3, ///< measurement buffer drained through the ScFill port
    End = 4,       ///< session seal: block count (+ final chain)
};

/** One decoded measurement event (tagged by @ref kind). */
struct MeasurementEvent
{
    EventKind kind = EventKind::Block;

    // --- Block ---------------------------------------------------------
    Addr start = 0;          ///< first instruction address
    Addr term = 0;           ///< terminating instruction address
    Addr end = 0;            ///< first byte past the terminator
    Addr target = 0;         ///< where control actually flowed next
    isa::InstrClass termClass = isa::InstrClass::Nop;
    bool artificialSplit = false;
    u32 codeDigest = 0;      ///< CHG digest of the fetched bytes

    // --- Syscall -------------------------------------------------------
    u8 service = 0;

    // --- SpillMark -----------------------------------------------------
    u64 spillBytes = 0;

    // --- End -----------------------------------------------------------
    u64 blockCount = 0;
    bool hasChain = false;
    crypto::Digest chain{};

    bool operator==(const MeasurementEvent &) const = default;
};

/**
 * Where a MeasurementSource delivers its session. StreamWriter is the
 * serializing implementation; tests plug in event-recording sinks.
 */
class MeasurementSink
{
  public:
    virtual ~MeasurementSink() = default;
    virtual void onHeader(const StreamHeader &header) = 0;
    virtual void onEvent(const MeasurementEvent &ev) = 0;
};

/**
 * Serializes a session into a byte vector (the reference encoder).
 */
class StreamWriter final : public MeasurementSink
{
  public:
    void onHeader(const StreamHeader &header) override;
    void onEvent(const MeasurementEvent &ev) override;

    const std::vector<u8> &bytes() const { return bytes_; }
    std::vector<u8> take() { return std::move(bytes_); }

  private:
    void putVarint(u64 v);
    void putZigzag(u64 v);

    std::vector<u8> bytes_;
    Addr prevEnd_ = 0; ///< delta base for the next Block record
};

/**
 * Incremental decoder over a caller-owned buffer. tryHeader()/tryNext()
 * never consume bytes on NeedMore, so a session can be decoded straight
 * out of a partially-filled ring buffer; offset() is the consumed prefix
 * the owner may discard.
 */
class StreamReader
{
  public:
    enum class Status : u8
    {
        Ok,       ///< one item decoded, cursor advanced
        NeedMore, ///< buffer ends mid-item, cursor unchanged
        Malformed ///< the bytes cannot be a valid stream
    };

    /** Decode the session header from @p data[0, size). */
    Status tryHeader(const u8 *data, std::size_t size, StreamHeader *out);

    /** Decode the next event after the header / previous event. */
    Status tryNext(const u8 *data, std::size_t size, MeasurementEvent *out);

    /** Bytes consumed so far (header + complete events). */
    std::size_t offset() const { return offset_; }

    /**
     * The owner discarded @p n consumed bytes from the front of its
     * buffer: rebase the cursor.
     */
    void rebase(std::size_t n) { offset_ -= n; }

  private:
    std::size_t offset_ = 0;
    Addr prevEnd_ = 0;
};

} // namespace rev::validate

#endif // REV_VALIDATE_STREAM_HPP
