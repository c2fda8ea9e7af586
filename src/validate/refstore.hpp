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
 * Layout: one shard per module. Each shard owns a private copy of the
 * table image (TableReader lookups go through SparseMemory, whose
 * translation cache makes even const reads non-reentrant) plus a mutex,
 * so worker threads verifying different sessions can look up different
 * modules concurrently; the verifier core batches each session's pending
 * lookups by shard to amortize the lock (see verifier/service.hpp).
 * Lookups run the *real* TableReader decrypt-and-walk path — the
 * verifier's found/termSeen/targets/preds semantics are the in-core
 * semantics by construction, not by re-implementation.
 */

#ifndef REV_VALIDATE_REFSTORE_HPP
#define REV_VALIDATE_REFSTORE_HPP

#include <memory>
#include <mutex>
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

    std::size_t shardCount() const { return shards_.size(); }

    /** Shard whose module code contains @p addr, or kNoShard. */
    std::size_t shardFor(Addr addr) const;

    /** The module record behind @p shard (CFG, table stats). */
    const sig::ModuleSig &moduleSig(std::size_t shard) const
    {
        return *shards_[shard]->sig;
    }

    sig::ValidationMode mode() const { return store_.mode(); }

    /**
     * Full/Aggressive reference lookup of (term, hash), walking the
     * module's encrypted table. Thread-safe (serialized per shard).
     */
    sig::LookupResult lookup(std::size_t shard, Addr term, u32 hash) const;

    /** CFI-only site lookup. Thread-safe (serialized per shard). */
    sig::LookupResult lookupSite(std::size_t shard, Addr term) const;

    /** One pending reference lookup of a batch. */
    struct LookupKey
    {
        Addr term = 0;
        u32 hash = 0; ///< ignored in CFI-only mode
    };

    /**
     * Resolve @p keys against @p shard under one lock acquisition — the
     * verifier core groups a session chunk's pending lookups by shard so
     * N blocks cost one lock round trip per shard, not N.
     * @p out is resized to keys.size(), index-aligned with @p keys.
     */
    void lookupBatch(std::size_t shard, const std::vector<LookupKey> &keys,
                     std::vector<sig::LookupResult> *out) const;

  private:
    struct Shard
    {
        const sig::ModuleSig *sig = nullptr;
        SparseMemory tableMem; ///< private image copy (reads mutate caches)
        std::unique_ptr<sig::TableReader> reader; ///< null when table-less
        mutable std::mutex lock;
    };

    const sig::SigStore store_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace rev::validate

#endif // REV_VALIDATE_REFSTORE_HPP
