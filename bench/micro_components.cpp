/**
 * @file
 * google-benchmark microbenchmarks of the hot simulator components:
 * CubeHash (the CHG function), AES-CTR (table decryption), SC probes,
 * cache/TLB accesses, signature-table lookups, and end-to-end simulator
 * throughput.
 */

#include <benchmark/benchmark.h>

#include "core/simulator.hpp"
#include "crypto/aes.hpp"
#include "crypto/cubehash.hpp"
#include "mem/memsys.hpp"
#include "sig/sigstore.hpp"
#include "workloads/generator.hpp"

namespace
{

using namespace rev;

void
BM_CubeHashBlock(benchmark::State &state)
{
    std::vector<u8> data(static_cast<std::size_t>(state.range(0)), 0xab);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::CubeHash::hash(data.data(), data.size(), 5));
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_CubeHashBlock)->Arg(40)->Arg(64)->Arg(256);

void
BM_AesCtr(benchmark::State &state)
{
    crypto::AesKey key{};
    crypto::Aes128 aes(key);
    std::vector<u8> data(static_cast<std::size_t>(state.range(0)), 0x55);
    u64 nonce = 0;
    for (auto _ : state)
        aes.ctrCrypt(data, ++nonce);
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(16)->Arg(4096);

void
BM_ScProbe(benchmark::State &state)
{
    validate::SignatureCache sc;
    Rng rng(1);
    for (int i = 0; i < 2048; ++i)
        sc.insert(0x10000 + rng.below(1 << 20), 0x10000);
    u64 addr = 0x10000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sc.probe(addr, 0x10000));
        addr += 7;
    }
}
BENCHMARK(BM_ScProbe);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::SetAssocCache cache("bm", 64 * 1024, 4, 64);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.next() & 0xfffff, false));
}
BENCHMARK(BM_CacheAccess);

void
BM_MemorySystemAccess(benchmark::State &state)
{
    mem::MemorySystem ms;
    Rng rng(3);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ms.access(rng.next() & 0x3fffff,
                                           mem::AccessType::DataRead,
                                           ++now));
    }
}
BENCHMARK(BM_MemorySystemAccess);

void
BM_TableLookup(benchmark::State &state)
{
    workloads::WorkloadProfile prof;
    prof.name = "bm";
    prof.numFunctions = 256;
    prof.entryFunctions = 4;
    prof.mainIterations = 1;
    const prog::Program program = workloads::generateWorkload(prof);
    crypto::KeyVault vault(1);
    sig::SigStore store(program, sig::ValidationMode::Full, vault);
    SparseMemory mem;
    store.loadInto(mem);
    const auto &ms = store.moduleSigs().front();
    sig::TableReader reader(mem, ms.tableBase, vault);

    const auto &blocks = ms.cfg->blocks();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &bb = blocks[i++ % blocks.size()];
        benchmark::DoNotOptimize(
            reader.lookup(bb.term, sig::bbHash(*ms.module, bb, 5), ms.module->base));
    }
}
BENCHMARK(BM_TableLookup);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    workloads::WorkloadProfile prof;
    prof.name = "bm";
    prof.numFunctions = 256;
    prof.entryFunctions = 4;
    prof.hotReach = 16;
    const prog::Program program = workloads::generateWorkload(prof);

    const bool with_rev = state.range(0) != 0;
    u64 instrs = 0;
    for (auto _ : state) {
        core::SimConfig cfg;
        cfg.withRev = with_rev;
        cfg.core.maxInstrs = 50'000;
        core::Simulator sim(program, cfg);
        const auto r = sim.run();
        instrs += r.run.instrs;
    }
    state.counters["instrs/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
