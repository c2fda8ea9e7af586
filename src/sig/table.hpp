/**
 * @file
 * RAM-resident reference signature tables (Sec. V).
 *
 * Each module gets one table, built offline by the trusted toolchain from
 * the module's reference CFG, encrypted with a per-module symmetric key
 * (AES-128-CTR) whose wrapped form sits in the table header (Sec. IX).
 *
 * Layout in simulated RAM:
 *
 *   [ header, cleartext, 80 B ]
 *   [ P bucket slots, each one record, encrypted ]
 *   [ overflow records, encrypted ]
 *
 * A basic block is identified by the address of its terminating
 * instruction; its record lives directly at slot (termOff % P), so an SC
 * miss for an unconflicted block costs a single memory access, as in the
 * paper. Colliding entries and continuation (spill) records holding extra
 * target / predecessor addresses live in the overflow area, linked into
 * the bucket's chain through the "next" field — the paper's "Next Entry
 * points to a spill area ... and the next entry sharing the same hash
 * index". Walks stop as soon as the needed address is located.
 *
 * Per Sec. V.B, the 4-byte crypto hash is itself the discriminator among
 * validation units sharing a terminator (control entering a straight-line
 * run in the middle yields a different hash for the same terminator):
 * lookups match on (termOff, hash) — the hardware compares the CHG digest
 * against candidate records while walking the chain. A chain that
 * contains the terminator but no matching hash is a detected compromise.
 *
 * Record sizes: Full 11 B, Aggressive 17 B (two inline targets), CFI-only
 * 12 B (one (site, target) pair per record).
 *
 * Address encodings: termOff is a module-relative 24-bit offset;
 * target/predecessor slots are 24-bit offsets relative to the program code
 * base (prog::kDefaultCodeBase), so cross-module targets are expressible —
 * the trusted linker/loader knows every module's load address.
 */

#ifndef REV_SIG_TABLE_HPP
#define REV_SIG_TABLE_HPP

#include <optional>
#include <vector>

#include "common/sparse_memory.hpp"
#include "crypto/keyvault.hpp"
#include "program/cfg.hpp"
#include "sig/mode.hpp"

namespace rev::sig
{

/** Size of the cleartext table header. */
inline constexpr u32 kHeaderBytes = 80;

/** Record size per mode. */
unsigned recordSize(ValidationMode mode);

/** Build-time statistics (drives the Sec. V table-size experiments). */
struct TableStats
{
    u64 logicalEntries = 0; ///< validation units (BBs / site-target pairs)
    u64 primaryRecords = 0;
    u64 contRecords = 0;
    u64 numBuckets = 0;
    u64 sizeBytes = 0;
    u64 maxChainLength = 0;
    u64 hashDuplicates = 0; ///< distinct BBs sharing a truncated hash
};

/** A built table: raw bytes to place in RAM plus its statistics. */
struct BuiltTable
{
    std::vector<u8> bytes;
    TableStats stats;
};

/**
 * Compute the 32-bit BB signature over the given code bytes bound to the
 * (start, term) address pair, per Sec. V.B ("the BB crypto hash includes
 * these addresses along with ... instructions in the BB").
 */
u32 bbHashBytes(const u8 *code, std::size_t len, Addr start, Addr term,
                unsigned hash_rounds);

/** BB signature computed from a module image (builder side). */
u32 bbHash(const prog::Module &mod, const prog::BasicBlock &bb,
           unsigned hash_rounds);

/** One block's input to bbHashBatch (borrowed code bytes). */
struct BbHashJob
{
    const u8 *code = nullptr;
    std::size_t len = 0;
    Addr start = 0;
    Addr term = 0;
};

/**
 * Batched bbHashBytes: out[i] = bbHashBytes(jobs[i]...) for any n >= 1,
 * through crypto::cubehashBatch. The table builders pass a module's
 * whole block list in one call.
 */
void bbHashBatch(const BbHashJob *jobs, std::size_t n, unsigned hash_rounds,
                 u32 *out);

/** bbHash() of every block of @p cfg, in cfg.blocks() order, batched. */
std::vector<u32> bbHashModule(const prog::Module &mod, const prog::Cfg &cfg,
                              unsigned hash_rounds);

/**
 * Build the signature table for @p mod / @p cfg in @p mode, encrypted with
 * @p module_key (wrapped for the CPU owning @p vault) and @p nonce.
 *
 * @param block_hashes Optional precomputed bbHash() per cfg.blocks()
 *        index (same module bytes and hash rounds). Hashing every block
 *        dominates table-build time and is mode-independent, so stores
 *        built for several modes share one computation. Ignored in
 *        CFI-only mode (no hashes in the table).
 */
BuiltTable buildTable(const prog::Module &mod, const prog::Cfg &cfg,
                      ValidationMode mode, const crypto::KeyVault &vault,
                      const crypto::AesKey &module_key, u64 nonce,
                      unsigned hash_rounds = 5,
                      const std::vector<u32> *block_hashes = nullptr);

/**
 * Optional early-exit hints for a table walk: the hardware stops reading
 * spill records once the address it needs has been located (it only ever
 * needs the one successor / predecessor of the current dynamic block).
 */
struct WalkNeeds
{
    std::optional<Addr> target;
    std::optional<Addr> pred;
};

/** Result of a reference-signature lookup. */
struct LookupResult
{
    bool found = false;
    /** The terminator exists in the table but no record matched the
     *  presented hash: a code-integrity violation (vs. an unknown block). */
    bool termSeen = false;
    u32 hash = 0;
    prog::TermKind termKind = prog::TermKind::Halt;
    std::vector<Addr> targets;  ///< explicit targets (absolute addresses)
    std::vector<Addr> retPreds; ///< RET addresses allowed to precede entry
    /**
     * Table addresses read while walking (head slot + each record); the
     * timing model replays these through the memory hierarchy.
     */
    std::vector<Addr> memAddrs;
};

/**
 * Decrypting reader over a table image in simulated RAM. This models the
 * SC miss handler: it issues reads against memory, decrypts them with the
 * unwrapped module key, and walks the collision chain.
 */
class TableReader
{
  public:
    /**
     * @param mem        Simulated RAM holding the table.
     * @param table_base RAM address of the table header.
     * @param vault      CPU key vault used to unwrap the module key.
     */
    TableReader(const SparseMemory &mem, Addr table_base,
                const crypto::KeyVault &vault);

    /**
     * Clone @p other's state — the header fields and unwrapped key it
     * cached at construction — re-bound to @p mem (a fork of the memory
     * @p other reads). Snapshot forking uses this so a fork's reader sees
     * exactly the header the source parsed, even if a later tamper
     * corrupted the header bytes.
     */
    TableReader(const TableReader &other, const SparseMemory &mem)
        : mem_(mem), base_(other.base_), valid_(other.valid_),
          mode_(other.mode_), hashRounds_(other.hashRounds_),
          numBuckets_(other.numBuckets_), numRecords_(other.numRecords_),
          nonce_(other.nonce_), cipher_(other.cipher_)
    {
    }

    /** False if the header is corrupt or the key fails to unwrap. */
    bool valid() const { return valid_; }

    ValidationMode mode() const { return mode_; }
    unsigned hashRounds() const { return hashRounds_; }

    /**
     * Full/Aggressive lookup of the validation unit with terminator
     * @p term whose generated digest is @p hash (Sec. V.B: the hash
     * discriminates among entries sharing a terminator).
     * @param module_base Load address of the module owning the table.
     * @param needs       Optional early-exit hints for spill walks.
     */
    LookupResult lookup(Addr term, u32 hash, Addr module_base,
                        const WalkNeeds *needs = nullptr) const;

    /**
     * CFI-only lookup: legitimate targets recorded for the computed site /
     * return @p term (all of them, or up to the needed one).
     */
    LookupResult lookupSite(Addr term, Addr module_base,
                            const WalkNeeds *needs = nullptr) const;

  private:
    /** Read and decrypt @p len bytes at table offset @p off. */
    void readDec(u64 off, u8 *out, std::size_t len) const;

    const SparseMemory &mem_;
    Addr base_;
    bool valid_ = false;
    ValidationMode mode_ = ValidationMode::Full;
    unsigned hashRounds_ = 5;
    u32 numBuckets_ = 0;
    u32 numRecords_ = 0;
    u64 nonce_ = 0;
    std::optional<crypto::Aes128> cipher_;
};

} // namespace rev::sig

#endif // REV_SIG_TABLE_HPP
