/**
 * @file
 * sigtool — the offline toolchain inspector: builds the signature tables
 * for a SPEC stand-in (or a random profile) and reports everything the
 * trusted linker would: CFG shape, per-mode table geometry, chain-length
 * distribution, hash-uniqueness, and a verification pass that every
 * reference entry is reachable through the decrypting walker.
 *
 *   sigtool [benchmark] [--mode full|aggressive|cfi] [--verify]
 */

#include <cstdio>
#include <cstring>
#include <map>

#include "program/cfg.hpp"
#include "sig/sigstore.hpp"
#include "workloads/generator.hpp"

int
main(int argc, char **argv)
{
    using namespace rev;

    std::string bench = "mcf";
    std::string mode_s = "full";
    bool verify = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--mode" && i + 1 < argc)
            mode_s = argv[++i];
        else if (arg == "--verify")
            verify = true;
        else if (arg[0] != '-')
            bench = arg;
    }
    sig::ValidationMode mode = sig::ValidationMode::Full;
    if (mode_s == "aggressive")
        mode = sig::ValidationMode::Aggressive;
    else if (mode_s == "cfi")
        mode = sig::ValidationMode::CfiOnly;

    std::printf("sigtool: %s (%s validation)\n", bench.c_str(),
                sig::modeName(mode));
    const prog::Program program =
        workloads::generateWorkload(workloads::specProfile(bench));

    crypto::KeyVault vault(1);
    sig::SigStore store(program, mode, vault);

    for (const auto &ms : store.moduleSigs()) {
        const prog::CfgStats cs = ms.cfg->stats();
        std::printf("\nmodule '%s' @0x%llx (%zu code bytes)\n",
                    ms.module->name.c_str(),
                    static_cast<unsigned long long>(ms.module->base),
                    ms.module->codeSize);
        std::printf("  CFG: %llu validation units over %llu terminators "
                    "(%.2f inst/BB, %.2f succ/BB)\n",
                    static_cast<unsigned long long>(cs.numBlocks),
                    static_cast<unsigned long long>(cs.numTerminators),
                    cs.avgInstrsPerBlock, cs.avgSuccsPerBlock);
        std::printf("  computed sites: %llu of %llu branch sites "
                    "(%.1f%%)\n",
                    static_cast<unsigned long long>(cs.numComputedSites),
                    static_cast<unsigned long long>(cs.numBranchInstrs),
                    100.0 * cs.numComputedSites /
                        static_cast<double>(cs.numBranchInstrs));
        const auto &st = ms.stats;
        std::printf("  table: %llu bytes (%.1f%% of code) = %llu buckets "
                    "x %u B + %llu spill records\n",
                    static_cast<unsigned long long>(st.sizeBytes),
                    100.0 * static_cast<double>(st.sizeBytes) /
                        static_cast<double>(ms.module->codeSize),
                    static_cast<unsigned long long>(st.numBuckets),
                    sig::recordSize(mode),
                    static_cast<unsigned long long>(st.contRecords));
        std::printf("  longest bucket chain: %llu entries; truncated-hash "
                    "duplicates: %llu\n",
                    static_cast<unsigned long long>(st.maxChainLength),
                    static_cast<unsigned long long>(st.hashDuplicates));

        if (verify && mode != sig::ValidationMode::CfiOnly) {
            SparseMemory mem;
            store.loadInto(mem);
            sig::TableReader reader(mem, ms.tableBase, vault);
            u64 ok = 0, walk_reads = 0;
            std::map<std::size_t, u64> read_histo;
            for (const auto &bb : ms.cfg->blocks()) {
                const auto res = reader.lookup(
                    bb.term, sig::bbHash(*ms.module, bb, 5),
                    ms.module->base);
                ok += res.found;
                walk_reads += res.memAddrs.size();
                ++read_histo[res.memAddrs.size()];
            }
            std::printf("  verify: %llu/%zu entries reachable, %.2f reads "
                        "per lookup\n",
                        static_cast<unsigned long long>(ok),
                        ms.cfg->blocks().size(),
                        static_cast<double>(walk_reads) /
                            static_cast<double>(ms.cfg->blocks().size()));
            std::printf("  lookup-read histogram:");
            for (const auto &[reads, count] : read_histo)
                std::printf(" %zu:%llu", reads,
                            static_cast<unsigned long long>(count));
            std::printf("\n");
        }
    }
    return 0;
}
