/**
 * @file
 * Shared fixture pieces for the verifier-service test battery: capture
 * one real measurement stream per backend (with its inline golden) so
 * transport / fault-injection / dedup tests all adjudicate against the
 * same ground truth.
 */

#ifndef REV_TESTS_VERIFIER_TESTUTIL_HPP
#define REV_TESTS_VERIFIER_TESTUTIL_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "validate/refstore.hpp"
#include "validate/stream.hpp"
#include "workloads/generator.hpp"
#include "workloads/profile.hpp"

namespace rev::verifier::test
{

/** One captured measurement session plus its inline golden. */
struct CapturedStream
{
    std::vector<u8> stream;
    bool detected = false;
    std::string reason;
    u64 bbValidated = 0;
};

/** Reference material + captured streams for one small workload. */
struct Corpus
{
    prog::Program program;
    std::unique_ptr<crypto::KeyVault> vault;
    std::unique_ptr<sig::SigStore> store;
    std::unique_ptr<validate::RefStore> refs;
    CapturedStream rev;
    CapturedStream lofat;
};

/** Installs a hook (e.g. a tamper) on a freshly built simulator. */
using Arm = std::function<void(core::Simulator &)>;

/** One measured run of @p cfg (the sink is attached here), armed with
 *  @p arm when given, plus its inline golden. */
inline CapturedStream
captureRun(const prog::Program &program, core::SimConfig cfg,
           const Arm &arm = {})
{
    validate::StreamWriter writer;
    cfg.measurementSink = &writer;
    core::Simulator sim(program, cfg);
    if (arm)
        arm(sim);
    const core::SimResult res = sim.run();
    sim.validator()->sealMeasurement();

    CapturedStream c;
    c.stream = writer.take();
    c.detected = res.run.violation.has_value();
    c.reason = sim.validator()->violationReason();
    c.bbValidated = res.validation.bbValidated;
    return c;
}

inline CapturedStream
captureOne(const prog::Program &program, sig::SigStore *store,
           validate::Backend backend, u64 budget)
{
    core::SimConfig cfg;
    cfg.core.maxInstrs = budget;
    cfg.backend = backend;
    cfg.sigStorePrototype = store;
    return captureRun(program, cfg);
}

/** Build the shared corpus once per test binary (expensive: simulated
 *  runs). ~5k instructions keeps it under a second. */
inline const Corpus &
corpus()
{
    static Corpus c = [] {
        Corpus out;
        const core::SimConfig base;
        out.program =
            workloads::generateWorkload(workloads::specProfile("bzip2"));
        out.vault = std::make_unique<crypto::KeyVault>(base.cpuSeed);
        out.store = std::make_unique<sig::SigStore>(
            out.program, base.mode, *out.vault, base.toolchainSeed,
            base.core.splitLimits, base.rev.chg.hashRounds);
        out.refs = std::make_unique<validate::RefStore>(*out.store,
                                                        out.vault.get());
        out.rev = captureOne(out.program, out.store.get(),
                             validate::Backend::Rev, 5000);
        out.lofat = captureOne(out.program, out.store.get(),
                               validate::Backend::LoFat, 5000);
        return out;
    }();
    return c;
}

} // namespace rev::verifier::test

#endif // REV_TESTS_VERIFIER_TESTUTIL_HPP
