#include "validate/registry.hpp"

#include "common/logging.hpp"

namespace rev::validate
{

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Rev: return "rev";
      case Backend::LoFat: return "lofat";
      case Backend::Null: return "null";
    }
    return "?";
}

bool
backendFromName(const std::string &name, Backend *out)
{
    for (const BackendInfo &info : ValidatorRegistry::instance().list()) {
        if (name == info.name) {
            *out = info.kind;
            return true;
        }
    }
    return false;
}

ValidatorRegistry &
ValidatorRegistry::instance()
{
    static ValidatorRegistry registry;
    return registry;
}

ValidatorRegistry::ValidatorRegistry()
{
    // Built-ins are registered here, not via static initializers: the
    // backends live in a static library, and an unreferenced translation
    // unit's initializers would be dropped by the linker.
    infos_.push_back(
        {Backend::Rev, "rev",
         "signature-based run-time execution validation (the paper)",
         /*needsTables=*/true,
         [](const BackendContext &ctx) -> std::unique_ptr<Validator> {
             REV_ASSERT(ctx.store && ctx.vault && ctx.mem && ctx.memsys,
                        "rev backend needs store/vault/mem/memsys");
             return std::make_unique<RevValidator>(
                 *ctx.store, *ctx.vault, *ctx.mem, *ctx.memsys, ctx.rev,
                 ctx.coreId);
         }});
    infos_.push_back(
        {Backend::LoFat, "lofat",
         "hash-chained control-flow attestation with eager CFG verification",
         /*needsTables=*/true,
         [](const BackendContext &ctx) -> std::unique_ptr<Validator> {
             REV_ASSERT(ctx.store && ctx.mem && ctx.memsys,
                        "lofat backend needs store/mem/memsys");
             return std::make_unique<LoFatValidator>(
                 *ctx.store, *ctx.mem, *ctx.memsys, ctx.lofat, ctx.coreId);
         }});
    infos_.push_back(
        {Backend::Null, "null", "no validation (the paper's base case)",
         /*needsTables=*/false,
         [](const BackendContext &) -> std::unique_ptr<Validator> {
             return std::make_unique<NullValidator>();
         }});
}

const BackendInfo *
ValidatorRegistry::find(Backend kind) const
{
    for (const BackendInfo &info : infos_) {
        if (info.kind == kind)
            return &info;
    }
    return nullptr;
}

std::unique_ptr<Validator>
ValidatorRegistry::create(Backend kind, const BackendContext &ctx) const
{
    const BackendInfo *info = find(kind);
    REV_ASSERT(info, "unregistered validation backend");
    return info->create(ctx);
}

} // namespace rev::validate
