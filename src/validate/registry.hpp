/**
 * @file
 * The validation-backend registry: the one place that knows how to turn a
 * Backend enumerator into a live Validator.
 *
 * The Simulator asks the registry two questions: does this backend need
 * the signature-store machinery built (needsTables), and make me one
 * (create). Tools ask for the list() to render --list-backends. Adding a
 * backend means adding one BackendInfo row here plus its implementation
 * files — no core or simulator changes.
 */

#ifndef REV_VALIDATE_REGISTRY_HPP
#define REV_VALIDATE_REGISTRY_HPP

#include <functional>
#include <memory>
#include <vector>

#include "validate/lofat_validator.hpp"
#include "validate/rev_validator.hpp"

namespace rev::validate
{

/** Everything a backend factory (or a fork, Validator::fork()) may draw
 *  from. Pointers may be null when the backend does not need them (the
 *  registry's needsTables flag tells the owner which ones to build). */
struct BackendContext
{
    const sig::SigStore *store = nullptr;
    const crypto::KeyVault *vault = nullptr;
    const SparseMemory *mem = nullptr;
    mem::MemorySystem *memsys = nullptr;
    RevConfig rev;
    LoFatConfig lofat;
    unsigned coreId = 0; ///< memory-system port for SC-fill/spill traffic
};

/** One registered backend. */
struct BackendInfo
{
    Backend kind = Backend::Null;
    const char *name = "";    ///< stable CLI name
    const char *summary = ""; ///< one-line --list-backends description
    bool needsTables = false; ///< requires a built SigStore
    std::function<std::unique_ptr<Validator>(const BackendContext &)> create;
};

/**
 * The process-wide backend table.
 */
class ValidatorRegistry
{
  public:
    static ValidatorRegistry &instance();

    /** Registered backends, in canonical (rev, lofat, null) order. */
    const std::vector<BackendInfo> &list() const { return infos_; }

    /** Info for @p kind; never null for a Backend enumerator. */
    const BackendInfo *find(Backend kind) const;

    /** Construct a validator of @p kind from @p ctx. */
    std::unique_ptr<Validator> create(Backend kind,
                                      const BackendContext &ctx) const;

  private:
    ValidatorRegistry(); ///< registers the built-in backends

    std::vector<BackendInfo> infos_;
};

} // namespace rev::validate

#endif // REV_VALIDATE_REGISTRY_HPP
