/**
 * @file
 * SigStore: the trusted linker/loader side of REV.
 *
 * For every module of a program it derives the reference CFG, builds the
 * encrypted signature table, assigns the table a home in RAM, and exposes
 * the (module range, table base) records that initialize the SAG base /
 * limit / key registers (Sec. IV.B). The per-module symmetric keys are
 * generated here and survive only in wrapped form inside the table
 * headers, mirroring Sec. IX.
 */

#ifndef REV_SIG_SIGSTORE_HPP
#define REV_SIG_SIGSTORE_HPP

#include <memory>
#include <vector>

#include "common/random.hpp"
#include "program/cfg.hpp"
#include "program/program.hpp"
#include "sig/table.hpp"

namespace rev::sig
{

/** RAM region where signature tables are placed (above heap and stack). */
inline constexpr Addr kSigTableRegion = 0x20000000;

/** Everything REV needs to know about one module's signatures. */
struct ModuleSig
{
    const prog::Module *module = nullptr;
    /** The module's reference CFG, linked program-wide. Immutable; shared
     *  by every store built from the same derivation (see SigStore). */
    std::shared_ptr<const prog::Cfg> cfg;
    Addr tableBase = 0;
    TableStats stats;
    /** bbHash() per cfg block, or null when this build never hashed
     *  (CFI-only without a donor). Shared like the CFG so stores built
     *  for other modes reuse it — hashing every block is the dominant
     *  table-build cost and is mode-independent. */
    std::shared_ptr<const std::vector<u32>> blockHashes;
};

/**
 * Builds and manages the signature tables of one program.
 *
 * Ownership model. A SigStore is a cheap handle over one immutable build
 * (every module's CFG, block hashes, table image and placement):
 *   - Copying a store shares its build — the Simulator copies its
 *     prototype (SimConfig::sigStorePrototype) and capture() copies the
 *     simulator's store into a Snapshot at the cost of a refcount, and
 *     concurrent copies from one prototype are safe.
 *   - rebuild() is copy-on-write: it gives this one handle a fresh build
 *     and leaves the old one to whoever else still holds it, so no
 *     prototype, snapshot or fork ever sees another handle's rebuild.
 *   - A store built with a cfg_donor shares the donor's CFGs (and block
 *     hashes, when the round counts match) instead of copying them; each
 *     CFG is derived and linked exactly once per derivation.
 *   - The store keeps its own copy of the key vault it was built with,
 *     so a copy has no lifetime ties to the builder's vault.
 * ModuleSig::module points into the program's module list, which must
 * outlive every store and snapshot built from it.
 */
class SigStore
{
  public:
    /**
     * Derive CFGs and build all tables.
     *
     * @param program   The program (annotations must already include any
     *                  profiled indirect targets).
     * @param mode      Validation mode shared by all tables.
     * @param vault     CPU key vault the tables are bound to (copied).
     * @param seed      Seeds per-module key generation.
     * @param cfg_donor Optional store built for the same program and split
     *                  limits (any mode): its CFGs are shared instead of
     *                  re-derived, and its block hashes too when built
     *                  with the same hash rounds. CFG derivation is
     *                  mode-independent, so the resulting tables are
     *                  byte-identical either way.
     */
    SigStore(const prog::Program &program, ValidationMode mode,
             const crypto::KeyVault &vault, u64 seed = 1,
             const prog::SplitLimits &limits = {},
             unsigned hash_rounds = 5,
             const SigStore *cfg_donor = nullptr);

    /**
     * Re-derive every CFG and rebuild every table from @p program's
     * current contents. This is the trusted dynamic linker / OS path of
     * Sec. IV.E: after new code is generated or a module is dynamically
     * linked (and its annotations merged), the tables are regenerated
     * with fresh keys before the code may execute. Call loadInto() and
     * Validator::refreshTables() afterwards. Only this handle sees the
     * new build (copy-on-write).
     */
    void rebuild(const prog::Program &program);

    /** Copy every table image into simulated RAM. */
    void loadInto(SparseMemory &mem) const;

    /** Per-module signature records, in program module order. */
    const std::vector<ModuleSig> &moduleSigs() const { return build_->sigs; }

    /** Record for the module whose code contains @p addr, or nullptr. */
    const ModuleSig *findByCode(Addr addr) const;

    ValidationMode mode() const { return mode_; }
    unsigned hashRounds() const { return hashRounds_; }

    /** Sum of table sizes in bytes. */
    u64 totalTableBytes() const;

  private:
    /** Everything one build produced; never modified once published. */
    struct Build
    {
        std::vector<ModuleSig> sigs;
        std::vector<std::vector<u8>> images;
    };

    void rebuildWith(const prog::Program &program, const SigStore *cfg_donor);

    ValidationMode mode_;
    unsigned hashRounds_;
    crypto::KeyVault vault_;
    u64 seed_;
    prog::SplitLimits limits_;
    u64 generation_ = 0; ///< bumps each rebuild (fresh keys/nonces)
    std::shared_ptr<const Build> build_;
};

} // namespace rev::sig

#endif // REV_SIG_SIGSTORE_HPP
