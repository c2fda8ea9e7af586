/**
 * @file
 * The Signature Cache (SC) — the on-chip cache of decrypted reference
 * signatures (Sec. IV.C, Fig. 2).
 *
 * Set-associative, probed with the basic-block address (the address of the
 * instruction terminating the BB). An entry holds the entry type, the
 * decrypted 4-byte crypto hash, and the most-recently-used successor and
 * predecessor addresses; when a BB has more successors/predecessors than
 * the entry can hold, only the MRU ones are kept and a *partial miss*
 * occurs when a different one is needed (serviced from the RAM table).
 *
 * Because control can enter a straight-line run in the middle, validation
 * units with the same terminator but different entry points coexist; the
 * SC tag therefore covers both addresses.
 */

#ifndef REV_VALIDATE_SC_HPP
#define REV_VALIDATE_SC_HPP

#include <optional>
#include <type_traits>
#include <vector>

#include "common/stats.hpp"
#include "program/cfg.hpp"

namespace rev::validate
{

/** SC geometry. */
struct ScConfig
{
    u64 sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned entryBytes = 16; ///< modeled entry footprint (Fig. 2)
};

/**
 * One SC entry. The MRU address slots are stored flat with a presence
 * mask rather than as three std::optionals, which keeps the entry at 56
 * bytes and the whole SC array trivially copyable: snapshot capture and
 * fork copy it with one memcpy.
 */
struct ScEntry
{
    /** The MRU address slots. */
    enum Slot : u8
    {
        kSucc = 0,  ///< MRU explicitly-validated successor
        kSucc2 = 1, ///< second successor slot (aggressive mode entries
                    ///< verify up to two, Sec. VIII)
        kPred = 2,  ///< MRU return-predecessor address
    };

    Addr term = 0;
    Addr start = 0;
    u64 lastUse = 0;
    u32 hash = 0;
    prog::TermKind kind = prog::TermKind::Halt;
    bool valid = false;

    /** Slot @p s's address, or nothing when the slot is empty. */
    std::optional<Addr>
    get(Slot s) const
    {
        return present_ & (1u << s) ? std::optional<Addr>(mru_[s])
                                    : std::nullopt;
    }

    void
    set(Slot s, std::optional<Addr> a)
    {
        if (a) {
            mru_[s] = *a;
            present_ |= static_cast<u8>(1u << s);
        } else {
            present_ &= static_cast<u8>(~(1u << s));
        }
    }

  private:
    u8 present_ = 0; ///< bit s set: mru_[s] holds an address
    Addr mru_[3] = {0, 0, 0};
};
static_assert(std::is_trivially_copyable_v<ScEntry>);

/**
 * The signature cache.
 */
class SignatureCache
{
  public:
    explicit SignatureCache(const ScConfig &cfg = {});

    /** Find the entry for (term, start); nullptr on a complete miss. */
    ScEntry *probe(Addr term, Addr start);

    /** Allocate (LRU-evicting) an entry for (term, start). */
    ScEntry &insert(Addr term, Addr start);

    /** Drop everything (context-switch-free by design; used by tests). */
    void invalidateAll();

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return cfg_.assoc; }
    u64 entryCount() const { return static_cast<u64>(numSets_) * cfg_.assoc; }

    u64 probes() const { return probes_; }
    u64 hits() const { return hits_; }
    u64 evictions() const { return evictions_; }

    void addStats(stats::StatGroup &group) const;

  private:
    unsigned setOf(Addr term) const;

    ScConfig cfg_;
    unsigned numSets_;
    std::vector<ScEntry> entries_;
    u64 useClock_ = 0;

    stats::Counter probes_, hits_, evictions_;
};

} // namespace rev::validate

#endif // REV_VALIDATE_SC_HPP
