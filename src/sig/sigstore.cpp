#include "sig/sigstore.hpp"

#include <algorithm>

#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "crypto/cubehash_lanes.hpp"

namespace rev::sig
{

SigStore::SigStore(const prog::Program &program, ValidationMode mode,
                   const crypto::KeyVault &vault, u64 seed,
                   const prog::SplitLimits &limits, unsigned hash_rounds,
                   const SigStore *cfg_donor)
    : mode_(mode), hashRounds_(hash_rounds), vault_(vault), seed_(seed),
      limits_(limits)
{
    rebuildWith(program, cfg_donor);
}

void
SigStore::rebuild(const prog::Program &program)
{
    rebuildWith(program, nullptr);
}

void
SigStore::rebuildWith(const prog::Program &program, const SigStore *cfg_donor)
{
    // A fresh build, published only when complete: other handles keep
    // the one they share.
    auto build = std::make_shared<Build>();
    auto &sigs = build->sigs;
    Rng rng(seed_ ^ 0x5167a11eULL ^ (generation_ * 0x9e3779b9ULL));
    ++generation_;
    Addr next_base = kSigTableRegion;

    // A donor is usable only when it analyzed exactly these modules with
    // the same split limits; CFG derivation does not depend on the mode.
    const auto &modules = program.modules();
    const bool donate = cfg_donor && cfg_donor->limits_ == limits_ &&
                        cfg_donor->moduleSigs().size() == modules.size() &&
                        [&] {
                            for (std::size_t i = 0; i < modules.size(); ++i)
                                if (cfg_donor->moduleSigs()[i].module !=
                                    &modules[i])
                                    return false;
                            return true;
                        }();

    sigs.resize(modules.size());
    if (donate) {
        // Share the donor's CFGs; block hashes depend only on the module
        // bytes and the round count.
        const bool donate_hashes = cfg_donor->hashRounds_ == hashRounds_;
        for (std::size_t i = 0; i < modules.size(); ++i) {
            sigs[i].cfg = cfg_donor->moduleSigs()[i].cfg;
            if (donate_hashes)
                sigs[i].blockHashes = cfg_donor->moduleSigs()[i].blockHashes;
        }
    } else {
        // Derive every module's CFG, then resolve cross-module return
        // edges once (the trusted static linker's knowledge, Sec. IV.B).
        std::vector<prog::Cfg> cfgs;
        cfgs.reserve(modules.size());
        for (const prog::Module &mod : modules)
            cfgs.push_back(prog::deriveCfg(mod, limits_));
        std::vector<prog::Cfg *> ptrs;
        for (prog::Cfg &cfg : cfgs)
            ptrs.push_back(&cfg);
        prog::linkCfgs(ptrs);
        for (std::size_t i = 0; i < modules.size(); ++i)
            sigs[i].cfg =
                std::make_shared<const prog::Cfg>(std::move(cfgs[i]));
    }

    for (std::size_t i = 0; i < sigs.size(); ++i) {
        auto &sig = sigs[i];
        sig.module = &modules[i];
        const auto &blocks = sig.cfg->blocks();
        if (mode_ != ValidationMode::CfiOnly && !sig.blockHashes) {
            // Hash the module's blocks four lanes at a time through the
            // multi-lane CubeHash (bit-identical to bbHash).
            const auto &mod = *sig.module;
            auto hashes = std::make_shared<std::vector<u32>>(blocks.size());
            BbHashJob jobs[crypto::CubeHashX4::kLanes];
            for (std::size_t b = 0; b < blocks.size();
                 b += crypto::CubeHashX4::kLanes) {
                const unsigned n = static_cast<unsigned>(std::min<std::size_t>(
                    crypto::CubeHashX4::kLanes, blocks.size() - b));
                for (unsigned l = 0; l < n; ++l) {
                    const auto &bb = blocks[b + l];
                    REV_ASSERT(bb.start >= mod.base &&
                                   bb.end <= mod.codeEnd(),
                               "SigStore: block outside module code");
                    jobs[l] = {mod.image.data() + (bb.start - mod.base),
                               bb.sizeBytes(), bb.start, bb.term};
                }
                bbHashBatch(jobs, n, hashRounds_, hashes->data() + b);
            }
            sig.blockHashes = std::move(hashes);
        }
        const crypto::AesKey key = vault_.generateModuleKey(rng);
        const u64 nonce = rng.next();
        BuiltTable built =
            buildTable(*sig.module, *sig.cfg, mode_, vault_, key, nonce,
                       hashRounds_, sig.blockHashes.get());
        sig.tableBase = next_base;
        sig.stats = built.stats;
        next_base = roundUp(next_base + built.bytes.size() + 0x100, 0x40);
        build->images.push_back(std::move(built.bytes));
    }
    build_ = std::move(build);
}

void
SigStore::loadInto(SparseMemory &mem) const
{
    for (std::size_t i = 0; i < build_->sigs.size(); ++i)
        mem.writeBytes(build_->sigs[i].tableBase, build_->images[i]);
}

const ModuleSig *
SigStore::findByCode(Addr addr) const
{
    for (const auto &sig : build_->sigs)
        if (sig.module->containsCode(addr))
            return &sig;
    return nullptr;
}

u64
SigStore::totalTableBytes() const
{
    u64 total = 0;
    for (const auto &img : build_->images)
        total += img.size();
    return total;
}

} // namespace rev::sig
