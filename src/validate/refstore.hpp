/**
 * @file
 * RefStore: the verifier's reference data, sharded by module.
 *
 * A StreamVerifier adjudicates measurement sessions against the same
 * reference material the in-core backends use — the encrypted signature
 * tables (REV) and the toolchain-derived CFGs (LO-FAT) — but from the
 * verifier service's side of the trust boundary: it holds the SigStore
 * the trusted toolchain built and the key vault of the CPU the tables
 * are bound to, not the prover's memory.
 *
 * Layout: the tables are loaded once into one image, and each module
 * (one "shard") gets a TableReader over it. SparseMemory reads write
 * nothing and a reader caches only what it parsed at construction, so
 * any number of worker threads verifying sessions may look up any
 * module at once, with no lock.
 *
 * Lookups run the *real* TableReader decrypt-and-walk path — the
 * verifier's found/termSeen/targets/preds semantics are the in-core
 * semantics by construction, not by re-implementation.
 */

#ifndef REV_VALIDATE_REFSTORE_HPP
#define REV_VALIDATE_REFSTORE_HPP

#include <memory>
#include <vector>

#include "common/sparse_memory.hpp"
#include "sig/sigstore.hpp"

namespace rev::validate
{

/** Sentinel for "no shard owns this address". */
inline constexpr std::size_t kNoShard = ~std::size_t{0};

/**
 * Module-sharded reference data for stream verification.
 */
class RefStore
{
  public:
    /**
     * @param store Reference store built by the trusted toolchain for the
     *              attested program. The handle is copied, sharing its
     *              build; the program it was built from must outlive
     *              this object.
     * @param vault Key vault of the CPU the tables are bound to; must
     *              outlive this object. May be null for table-less
     *              verification (LO-FAT uses only the CFGs).
     */
    RefStore(const sig::SigStore &store, const crypto::KeyVault *vault);

    // The readers refer to tables_, so a RefStore stays where it was
    // built.
    RefStore(const RefStore &) = delete;
    RefStore &operator=(const RefStore &) = delete;

    /** Shard whose module code contains @p addr, or kNoShard. */
    std::size_t shardFor(Addr addr) const;

    /** The module record behind @p shard (CFG, table stats). */
    const sig::ModuleSig &moduleSig(std::size_t shard) const
    {
        return *shards_[shard].sig;
    }

    sig::ValidationMode mode() const { return store_.mode(); }

    /**
     * Full/Aggressive reference lookup of (term, hash), walking the
     * module's encrypted table. Thread-safe (reads only).
     */
    sig::LookupResult lookup(std::size_t shard, Addr term, u32 hash) const;

    /** CFI-only site lookup. Thread-safe (reads only). */
    sig::LookupResult lookupSite(std::size_t shard, Addr term) const;

  private:
    struct Shard
    {
        const sig::ModuleSig *sig = nullptr;
        std::unique_ptr<sig::TableReader> reader; ///< null when table-less
    };

    const sig::SigStore store_;
    SparseMemory tables_; ///< every module's table, loaded once
    std::vector<Shard> shards_;
};

} // namespace rev::validate

#endif // REV_VALIDATE_REFSTORE_HPP
