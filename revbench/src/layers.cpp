/**
 * @file
 * The layer pass of a traced run: calls each layer's public entry
 * points on the workload's own programs, one span per call, and derives
 * the per-layer metrics from them. Layers the workload's timed part
 * already measured (the campaign's redteam numbers, the verify-*
 * service numbers) are not probed again.
 */

#include <algorithm>

#include "bench/suite.hpp"
#include "common/random.hpp"
#include "core/simulator.hpp"
#include "mem/memsys.hpp"
#include "program/cfg.hpp"
#include "program/interp.hpp"
#include "redteam/campaign.hpp"
#include "sig/table.hpp"
#include "tracer.hpp"
#include "verify.hpp"
#include "workloads/scheduler.hpp"

namespace revbench
{

using namespace rev;

namespace
{

constexpr u64 kInterpInstrs = 200'000;  ///< functional run per program
constexpr u64 kSimInstrs = 100'000;     ///< timing run per program/config
constexpr u64 kStreamInstrs = 30'000;   ///< probe corpus stream length
constexpr int kMemAccesses = 200'000;
/** Programs the layer pass exercises (the workload's first few). */
constexpr std::size_t kMaxPrograms = 4;
constexpr int kSnapshotIters = 25;

/** Accumulates the host seconds of spans of one kind. */
class Timed
{
  public:
    template <typename F>
    auto
    operator()(const char *span, F &&body)
    {
        trace::Scope s(span);
        const auto t0 = Clock::now();
        struct Add
        {
            double &total;
            Clock::time_point t0;
            ~Add() { total += secondsSince(t0); }
        } add{seconds, t0};
        return body();
    }

    double seconds = 0;
};

double
perSecond(double amount, double secs)
{
    return secs > 0 ? amount / secs : 0;
}

} // namespace

void
reportRedteamLayer(const redteam::DetectionMatrix &m, Outcome &out)
{
    const redteam::CellStats &t = m.total;
    auto d = [](u64 v) { return static_cast<double>(v); };
    out.layer("redteam.injections", d(m.injections), "count");
    out.layer("redteam.detected", d(t.detected), "count");
    out.layer("redteam.crashed", d(t.crashed), "count");
    out.layer("redteam.benign", d(t.benign), "count");
    out.layer("redteam.blind", d(t.blind), "count");
    out.layer("redteam.escapes", d(t.escapes), "count");
    out.layer("redteam.unfired_ratio",
              m.injections ? d(t.unfired) / d(m.injections) : 0, "ratio");
}

void
runLayerPass(const RunArgs &args, Workload &w, Outcome &out)
{
    std::vector<workloads::WorkloadProfile> profs = w.programs();
    if (profs.size() > kMaxPrograms)
        profs.resize(kMaxPrograms);
    const core::SimConfig full32 =
        bench::sweepSimConfig(bench::Config::Full32, kSimInstrs);
    const core::SimConfig baseCfg =
        bench::sweepSimConfig(bench::Config::Base, kSimInstrs);
    const unsigned rounds = full32.rev.chg.hashRounds;

    // workloads: program generation.
    Timed gen;
    std::vector<prog::Program> programs;
    for (const workloads::WorkloadProfile &p : profs)
        programs.push_back(
            gen("workloads.generate", [&] { return workloads::buildProgram(p); }));
    out.layer("workloads.generate_s", gen.seconds, "s");

    // program: CFG derivation, one per module.
    Timed cfgT;
    std::vector<std::pair<const prog::Module *, prog::Cfg>> cfgs;
    for (const prog::Program &p : programs)
        for (const prog::Module &m : p.modules())
            cfgs.emplace_back(&m, cfgT("program.build_cfg",
                                       [&] { return prog::buildCfg(m); }));
    out.layer("program.cfg_s", cfgT.seconds, "s");

    // sig: batched block hashing, checked against the scalar path.
    Timed hashT;
    double hashBytes = 0;
    for (const auto &[mod, cfg] : cfgs) {
        const auto &blocks = cfg.blocks();
        std::vector<sig::BbHashJob> jobs;
        for (const prog::BasicBlock &bb : blocks) {
            jobs.push_back({mod->image.data() + (bb.start - mod->base),
                            bb.sizeBytes(), bb.start, bb.term});
            hashBytes += static_cast<double>(bb.sizeBytes());
        }
        std::vector<u32> h(jobs.size());
        hashT("sig.hash_batch", [&] {
            for (std::size_t b = 0; b < jobs.size(); b += 4)
                sig::bbHashBatch(jobs.data() + b,
                                 static_cast<unsigned>(
                                     std::min<std::size_t>(4, jobs.size() - b)),
                                 rounds, h.data() + b);
        });
        for (std::size_t i = 0; i < blocks.size(); ++i)
            if (h[i] != sig::bbHash(*mod, blocks[i], rounds)) {
                out.fail("sig: bbHashBatch differs from bbHash in " +
                         mod->name);
                break;
            }
        out.count(blocks.size(), 0);
    }
    out.layer("sig.hash_mbps", perSecond(hashBytes, hashT.seconds) / 1e6,
              "MB/s");

    // sig + crypto: one full-mode table per module, hashing and AES.
    crypto::KeyVault vault(full32.cpuSeed);
    Rng keyRng(args.seed);
    Timed tableT;
    for (const auto &[mod, cfg] : cfgs) {
        const crypto::AesKey key = vault.generateModuleKey(keyRng);
        const u64 nonce = keyRng.next();
        (void)tableT("sig.table_build", [&] {
            return sig::buildTable(*mod, cfg, sig::ValidationMode::Full, vault,
                                   key, nonce, rounds);
        });
    }
    out.layer("sig.table_build_s", tableT.seconds, "s");

    // sig: whole stores in all three modes, sharing CFGs and hashes the
    // way the sweep's prototype build does.
    Timed storeT;
    std::vector<std::unique_ptr<sig::SigStore>> fullStores;
    for (const prog::Program &p : programs) {
        auto build = [&](sig::ValidationMode mode, const sig::SigStore *donor) {
            return std::make_unique<sig::SigStore>(
                p, mode, vault, full32.toolchainSeed, full32.core.splitLimits,
                rounds, donor);
        };
        auto full = storeT("sig.store_build",
                           [&] { return build(sig::ValidationMode::Full, nullptr); });
        (void)storeT("sig.store_build", [&] {
            return build(sig::ValidationMode::Aggressive, full.get());
        });
        (void)storeT("sig.store_build", [&] {
            return build(sig::ValidationMode::CfiOnly, full.get());
        });
        fullStores.push_back(std::move(full));
    }
    out.layer("sig.store_build_s", storeT.seconds, "s");

    // program: the functional interpreter alone.
    Timed interpT;
    double interpInstrs = 0;
    for (const prog::Program &p : programs) {
        SparseMemory mem;
        p.loadInto(mem);
        prog::Machine machine(p, mem);
        interpInstrs += static_cast<double>(interpT(
            "program.interp", [&] { return prog::runToHalt(machine, kInterpInstrs); }));
    }
    out.layer("program.interp_mips",
              perSecond(interpInstrs, interpT.seconds) / 1e6, "MIPS");

    // core / cpu / validate / mem: timing runs, base vs REV full 32 KB.
    Timed baseT, revT;
    double baseInstrs = 0, baseCycles = 0, revInstrs = 0, revCycles = 0;
    double stall = 0, scMisses = 0, fillL2 = 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const core::SimResult b = baseT("core.sim_base", [&] {
            return core::Simulator(programs[i], baseCfg).run();
        });
        core::SimConfig rc = full32;
        rc.sigStorePrototype = fullStores[i].get();
        const core::SimResult r = revT("core.sim_rev", [&] {
            return core::Simulator(programs[i], rc).run();
        });
        if (b.run.violation || r.run.violation)
            out.fail("core: unexpected violation in " + profs[i].name);
        out.count(2, 0);
        baseInstrs += static_cast<double>(b.run.instrs);
        baseCycles += static_cast<double>(b.run.cycles);
        revInstrs += static_cast<double>(r.run.instrs);
        revCycles += static_cast<double>(r.run.cycles);
        stall += static_cast<double>(r.validation.commitStallCycles);
        scMisses += static_cast<double>(r.rev.scCompleteMisses +
                                        r.rev.scPartialMisses);
        fillL2 += static_cast<double>(r.scFillL2Misses);
    }
    const double baseSpi = baseT.seconds / baseInstrs;
    const double revSpi = revT.seconds / revInstrs;
    out.layer("core.base_mips", 1e-6 / baseSpi, "MIPS");
    out.layer("core.rev_mips", 1e-6 / revSpi, "MIPS");
    out.layer("validate.rev_host_ratio", revSpi / baseSpi, "ratio");
    out.layer("cpu.ipc", baseInstrs / baseCycles, "instr/cycle");
    out.layer("validate.rev_overhead_pct",
              ((revCycles / revInstrs) / (baseCycles / baseInstrs) - 1) * 100,
              "%");
    out.layer("validate.commit_stall_cycles", stall, "cycles");
    out.layer("validate.sc_misses", scMisses, "count");
    out.layer("mem.sc_fill_l2_misses", fillL2, "count");

    // mem: the hierarchy's access path, seeded addresses over 4 MiB.
    {
        mem::MemorySystem ms{mem::MemConfig{}};
        Rng rng(args.seed);
        std::vector<Addr> addrs(kMemAccesses);
        for (Addr &a : addrs)
            a = rng.below(1u << 16) * 64;
        Timed memT;
        memT("mem.access", [&] {
            Cycle at = 0;
            for (const Addr a : addrs) {
                const mem::AccessResult r =
                    ms.access(a, mem::AccessType::DataRead, at);
                at = std::max(at + 1, r.l1Hit ? at + 1 : r.completeAt);
            }
        });
        out.layer("mem.access_ns", memT.seconds * 1e9 / kMemAccesses, "ns");
    }

    // core snapshots: capture and fork a warmed REV machine.
    {
        core::SimConfig sc = bench::sweepSimConfig(bench::Config::Full32, 20'000);
        sc.sigStorePrototype = fullStores.front().get();
        core::Simulator src(programs.front(), sc);
        if (!src.runUntil(5'000)) {
            out.fail("core: snapshot source ended before its capture point");
        } else {
            Timed capT, forkT;
            for (int i = 0; i < kSnapshotIters; ++i)
                (void)capT("core.capture", [&] { return src.capture(); });
            const core::Snapshot snap = src.capture();
            for (int i = 0; i < kSnapshotIters; ++i)
                (void)forkT("core.fork",
                            [&] { return core::Simulator::forkFrom(snap); });
            out.layer("core.capture_us", capT.seconds * 1e6 / kSnapshotIters,
                      "us");
            out.layer("core.fork_us", forkT.seconds * 1e6 / kSnapshotIters,
                      "us");
        }
    }

    // validate: standalone stream verification, cold then warm cache.
    std::unique_ptr<Corpus> own;
    const Corpus *corpus = w.corpus();
    if (!corpus) {
        own = std::make_unique<Corpus>(
            buildCorpus(profs, {validate::Backend::Rev}, kStreamInstrs));
        corpus = own.get();
    }
    auto verifyAll = [&](const char *span, validate::UnitLookupCache *cache,
                         double *bytes) {
        Timed t;
        for (const StreamCase &c : corpus->cases) {
            const validate::StreamVerdict v = t(span, [&] {
                validate::StreamVerifier sv(*c.refs, cache);
                sv.feed(c.stream.data(), c.stream.size());
                sv.finish();
                return sv.verdict();
            });
            *bytes += static_cast<double>(c.stream.size());
            const std::string d = divergence(c, v);
            out.count(1, d.empty() ? 0 : 1);
            if (!d.empty())
                out.fail("validate: " + c.bench + ": " + d);
        }
        return t.seconds;
    };
    {
        double bytes = 0;
        const double secs = verifyAll("validate.stream_verify", nullptr, &bytes);
        out.layer("validate.stream_mbps", perSecond(bytes, secs) / 1e6, "MB/s");
        verifier::VerifiedUnitCache cache(1u << 16);
        double warmBytes = 0, bytesCached = 0;
        (void)verifyAll("validate.stream_warm", &cache, &warmBytes);
        const double cachedSecs =
            verifyAll("validate.stream_verify_cached", &cache, &bytesCached);
        out.layer("validate.stream_cached_mbps",
                  perSecond(bytesCached, cachedSecs) / 1e6, "MB/s");
    }

    // redteam: a small seeded campaign when the workload is not one.
    if (!w.ownsRedteam()) {
        redteam::CampaignSpec spec;
        spec.seed = args.seed;
        spec.injections = 216;
        spec.instrBudget = 6'000;
        spec.threads = 1;
        std::unique_ptr<redteam::Campaign> c;
        {
            trace::Scope span("redteam.campaign_build");
            c = std::make_unique<redteam::Campaign>(spec);
        }
        redteam::DetectionMatrix m;
        {
            trace::Scope span("redteam.campaign_run");
            m = c->run(true);
        }
        if (!m.coversAllCells())
            out.fail("redteam: probe campaign left a cell uncovered");
        out.count(m.injections, 0);
        reportRedteamLayer(m, out);
    }

    // verifier: a short open/closed-loop probe over the probe corpus.
    if (!w.ownsVerifier()) {
        LoadOptions o;
        o.seed = args.seed;
        o.rate = 100;
        o.openSeconds = 1.0;
        o.closedSeconds = 0.5;
        o.outstanding = 8;
        o.batch = 32;
        const LoadResult r = runLoad(*corpus, o);
        out.count(r.sessions, r.failed);
        if (r.failed)
            out.fail("verifier probe: " + r.firstFailure);
        reportVerifierLayer(r, out);
    }
}

} // namespace revbench
