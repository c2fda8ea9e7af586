#include "redteam/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "core/simulator.hpp"
#include "sig/table.hpp"
#include "workloads/scheduler.hpp"

namespace rev::redteam
{

std::vector<workloads::WorkloadProfile>
campaignWorkloads()
{
    // Small on purpose: campaign cost is injections x budget, and the
    // oracle needs the golden instruction stream to revisit tampered
    // sites, not a SPEC-sized footprint. Two distinct dynamic shapes —
    // call-heavy with computed dispatch, and branchy with churning
    // gates — so every injection class finds targets of both kinds.
    workloads::WorkloadProfile mix;
    mix.name = "rt-mix";
    mix.seed = 11;
    mix.numFunctions = 150;
    mix.entryFunctions = 8;
    mix.callSpan = 40;
    mix.indirectFnFrac = 0.15;
    mix.loopFrac = 0.3;
    mix.branchBias = 0.8;
    mix.dataFootprint = 1 << 20;

    workloads::WorkloadProfile branchy;
    branchy.name = "rt-branchy";
    branchy.seed = 12;
    branchy.numFunctions = 120;
    branchy.entryFunctions = 8;
    branchy.callSpan = 30;
    branchy.indirectFnFrac = 0.08;
    branchy.branchBias = 0.6;
    branchy.gateSpread = 0.2;
    branchy.storeFrac = 0.12;
    branchy.dataFootprint = 1 << 20;

    // OS-pressure shape: the guest-side preemptive scheduler
    // (src/workloads/scheduler.cpp). Context switches between guest
    // threads churn the signature cache mid-quantum, so injections land
    // in freshly re-fetched blocks as often as in warm ones.
    workloads::WorkloadProfile sched = workloads::schedStormProfile();
    sched.name = "rt-sched";
    sched.seed = 13;
    sched.mainIterations = 128; // scheduling slices

    return {mix, branchy, sched};
}

std::vector<TimingVariant>
campaignTimings()
{
    return {{"sc32", 32 * 1024}, {"sc8", 8 * 1024}};
}

std::vector<sig::ValidationMode>
campaignModes()
{
    return {sig::ValidationMode::Full, sig::ValidationMode::Aggressive,
            sig::ValidationMode::CfiOnly};
}

bool
DetectionMatrix::coversAllCells() const
{
    for (const auto &[key, cell] : cells)
        if (cell.injections == 0)
            return false;
    return !cells.empty();
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

Campaign::Campaign(const CampaignSpec &spec)
    : spec_(spec), threads_(resolveThreadCount(spec.threads))
{
    // Resolve the axis subsets against the built-in defaults.
    for (const TimingVariant &t : campaignTimings())
        if (spec_.timings.empty() ||
            std::find(spec_.timings.begin(), spec_.timings.end(), t.name) !=
                spec_.timings.end())
            timings_.push_back(t);
    if (timings_.empty())
        fatal("campaign: no timing variant matched");
    modes_ = campaignModes();
    classes_ = spec_.classes;
    if (classes_.empty())
        classes_.assign(std::begin(kCampaignClasses),
                        std::end(kCampaignClasses));

    std::vector<workloads::WorkloadProfile> profiles;
    for (const workloads::WorkloadProfile &p : campaignWorkloads())
        if (spec_.workloads.empty() ||
            std::find(spec_.workloads.begin(), spec_.workloads.end(),
                      p.name) != spec_.workloads.end())
            profiles.push_back(p);
    if (profiles.empty())
        fatal("campaign: no workload matched");

    // Phase 1: contexts (workload generation, signature prototypes, the
    // golden record run) fan out across workloads.
    contexts_.resize(profiles.size());
    parallelFor(profiles.size(), threads_, [&](std::size_t i) {
        contexts_[i] =
            buildWorkloadContext(profiles[i], spec_, modes_, timings_.front());
    });

    // Phase 2: the remaining (workload, mode, timing) goldens — replayed
    // from the recorded trace when enabled — across the same pool. Each
    // task touches one context exclusively per (mode, timing) key, so
    // fan out over contexts to keep map writes single-threaded.
    parallelFor(contexts_.size(), threads_, [&](std::size_t i) {
        for (sig::ValidationMode mode : modes_)
            for (const TimingVariant &t : timings_)
                addGolden(*contexts_[i], spec_, mode, t);
    });
}

Campaign::~Campaign() = default;

const WorkloadContext &
Campaign::context(const std::string &workload) const
{
    for (const auto &ctx : contexts_)
        if (ctx->name == workload)
            return *ctx;
    panic("campaign: unknown workload ", workload);
}

namespace
{

/** Payload = original bytes XOR nonzero masks: guaranteed different. */
std::vector<u8>
xorPayload(const u8 *original, std::size_t len, Rng &rng)
{
    std::vector<u8> out(len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = original[i] ^ static_cast<u8>(rng.range(1, 255));
    return out;
}

const prog::Module &
mainModule(const WorkloadContext &ctx)
{
    return ctx.program.main();
}

const u8 *
imageAt(const WorkloadContext &ctx, Addr pc)
{
    const prog::Module &mod = mainModule(ctx);
    return mod.image.data() + static_cast<std::size_t>(pc - mod.base);
}

} // namespace

std::vector<InjectionPlan>
Campaign::generatePlans() const
{
    const std::size_t C = classes_.size();
    const std::size_t M = modes_.size();
    const std::size_t T = timings_.size();
    const std::size_t W = contexts_.size();

    std::vector<InjectionPlan> plans;
    plans.reserve(static_cast<std::size_t>(spec_.injections));
    for (u64 i = 0; i < spec_.injections; ++i) {
        InjectionPlan plan;
        plan.id = i;
        plan.seed = spec_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
        // Round-robin stratification: every (class, mode, timing,
        // workload) cell is covered once injections >= C*M*T*W, and the
        // per-cell counts never differ by more than one.
        plan.klass = classes_[i % C];
        plan.mode = modes_[(i / C) % M];
        plan.timing = timings_[(i / (C * M)) % T].name;
        const WorkloadContext &ctx = *contexts_[(i / (C * M * T)) % W];
        plan.workload = ctx.name;

        Rng rng(plan.seed);
        // Fire inside the first ~60% of the golden stream so tampered
        // sites still get revisited before the instruction budget.
        plan.fireIndex = rng.range(1, std::max<u64>(1, ctx.goldenInstrs * 3 / 5));

        const auto pick_site = [&]() -> const ExecSite & {
            return ctx.sites[rng.below(ctx.sites.size())];
        };

        switch (plan.klass) {
          case InjectionClass::NoOp:
            break;
          case InjectionClass::CodeFlip: {
            const ExecSite &site = pick_site();
            const u64 n = rng.range(1, std::min<u64>(3, site.len));
            const u64 off = rng.below(site.len - n + 1);
            plan.targetAddr = site.pc + off;
            plan.payload = xorPayload(imageAt(ctx, plan.targetAddr),
                                      static_cast<std::size_t>(n), rng);
            break;
          }
          case InjectionClass::DmaWrite: {
            const ExecSite &site = pick_site();
            const Addr code_end = mainModule(ctx).codeEnd();
            const u64 n = std::min<u64>(rng.range(8, 64),
                                        code_end - site.pc);
            plan.targetAddr = site.pc;
            plan.payload = xorPayload(imageAt(ctx, site.pc),
                                      static_cast<std::size_t>(n), rng);
            break;
          }
          case InjectionClass::CfgRewire: {
            const std::size_t k =
                ctx.branchSites[rng.below(ctx.branchSites.size())];
            const ExecSite &br = ctx.sites[k];
            // Br encodes imm32 at byte 3 (op, rs1, rs2, imm); Jmp/Call
            // at byte 1 (op, imm). Targets are pc-relative.
            const u64 imm_off =
                br.klass == isa::InstrClass::Branch ? 3 : 1;
            const u8 *imm = imageAt(ctx, br.pc + imm_off);
            const i32 old_imm = static_cast<i32>(
                static_cast<u32>(imm[0]) | (static_cast<u32>(imm[1]) << 8) |
                (static_cast<u32>(imm[2]) << 16) |
                (static_cast<u32>(imm[3]) << 24));
            i32 new_imm = old_imm;
            for (unsigned attempt = 0; attempt < 8 && new_imm == old_imm;
                 ++attempt)
                new_imm = static_cast<i32>(
                    static_cast<i64>(pick_site().pc) -
                    static_cast<i64>(br.pc));
            if (new_imm == old_imm)
                ++new_imm; // single-site degenerate workload
            plan.targetAddr = br.pc + imm_off;
            plan.redirectTarget = br.pc + static_cast<i64>(new_imm);
            plan.payload = {static_cast<u8>(new_imm),
                            static_cast<u8>(new_imm >> 8),
                            static_cast<u8>(new_imm >> 16),
                            static_cast<u8>(new_imm >> 24)};
            break;
          }
          case InjectionClass::RetSmash:
            plan.redirectTarget =
                ctx.retRedirects[rng.below(ctx.retRedirects.size())];
            break;
          case InjectionClass::SigCorrupt: {
            if (spec_.disableRev || ctx.protos.empty()) {
                // Nothing lives there without REV; still a valid plan
                // (must classify Benign, or Escape is a harness bug).
                plan.targetAddr =
                    sig::kSigTableRegion + rng.below(4096);
            } else {
                const sig::ModuleSig &ms =
                    ctx.protos.at(plan.mode).moduleSigs().front();
                // Skip the cleartext header: the table reader caches it
                // at first use, so corrupting it later is invisible by
                // design; the record area is what walks keep reading.
                const u64 span =
                    ms.stats.sizeBytes - sig::kHeaderBytes - 16;
                plan.targetAddr =
                    ms.tableBase + sig::kHeaderBytes + rng.below(span);
            }
            plan.payload.resize(rng.range(4, 16));
            for (u8 &b : plan.payload)
                b = static_cast<u8>(rng.next());
            break;
          }
          case InjectionClass::TimingJitter: {
            const ExecSite &site = pick_site();
            const u64 n = rng.range(1, std::min<u64>(3, site.len));
            const u64 off = rng.below(site.len - n + 1);
            plan.targetAddr = site.pc + off;
            plan.payload = xorPayload(imageAt(ctx, plan.targetAddr),
                                      static_cast<std::size_t>(n), rng);
            plan.phase = static_cast<JitterPhase>(rng.below(3));
            plan.watchPc = pick_site().pc;
            break;
          }
        }
        plans.push_back(std::move(plan));
    }
    return plans;
}

InjectionResult
Campaign::runPlan(const InjectionPlan &plan) const
{
    const WorkloadContext &ctx = context(plan.workload);
    for (const TimingVariant &t : timings_)
        if (t.name == plan.timing)
            return runInjection(ctx, spec_, plan, t);
    panic("campaign: unknown timing variant ", plan.timing);
}

bool
Campaign::canRun(const InjectionPlan &plan) const
{
    bool timing_ok = false;
    for (const TimingVariant &t : timings_)
        timing_ok = timing_ok || t.name == plan.timing;
    if (!timing_ok)
        return false;
    for (const auto &ctx : contexts_)
        if (ctx->name == plan.workload)
            return true;
    return false;
}

DetectionMatrix
Campaign::run(bool use_snapshots) const
{
    const std::vector<InjectionPlan> plans = generatePlans();

    DetectionMatrix m;
    m.seed = spec_.seed;
    m.injections = spec_.injections;
    m.revEnabled = !spec_.disableRev;
    m.backend = spec_.backend;
    for (InjectionClass c : classes_)
        for (sig::ValidationMode mode : modes_)
            m.cells[{injectionClassName(c), sig::modeName(mode)}] = {};

    // Streaming aggregation: verdicts fold into the matrix as they
    // arrive instead of collecting an O(injections) result vector, so a
    // 100k-injection campaign runs at flat RSS. Cell counters are
    // commutative; escapes are re-sorted below, so the rendered JSON is
    // independent of completion order.
    std::mutex mu;
    const auto record = [&](const InjectionPlan &plan,
                            const InjectionResult &r) {
        std::lock_guard<std::mutex> lock(mu);
        CellStats &cell = m.cells[{injectionClassName(plan.klass),
                                   sig::modeName(plan.mode)}];
        ++cell.injections;
        if (!r.fired)
            ++cell.unfired;
        switch (r.verdict) {
          case Verdict::Detected:
            ++cell.detected;
            cell.latencySum += r.latencyCycles;
            if (!r.mechanismMatch) {
                ++cell.offMechanism;
                m.nearMisses.push_back(
                    EscapeRecord{plan, r, planFingerprint(plan)});
            }
            break;
          case Verdict::Crashed: ++cell.crashed; break;
          case Verdict::Benign: ++cell.benign; break;
          case Verdict::Blind: ++cell.blind; break;
          case Verdict::Escape:
            ++cell.escapes;
            m.escapes.push_back(
                EscapeRecord{plan, r, planFingerprint(plan)});
            break;
        }
    };

    if (!use_snapshots) {
        parallelFor(plans.size(), threads_, [&](std::size_t i) {
            record(plans[i], runPlan(plans[i]));
        });
    } else {
        // One source simulator per (workload, mode, timing)
        // configuration advances monotonically through that group's fire
        // indices; every injection forks from a snapshot taken at its
        // exact fire point instead of re-executing the prefix cold.
        struct Group
        {
            const WorkloadContext *ctx = nullptr;
            sig::ValidationMode mode{};
            const TimingVariant *timing = nullptr;
            std::vector<std::size_t> planIdx;
        };
        std::vector<Group> groups;
        for (const auto &ctx : contexts_)
            for (sig::ValidationMode mode : modes_)
                for (const TimingVariant &t : timings_)
                    groups.push_back(Group{ctx.get(), mode, &t, {}});
        const std::size_t M = modes_.size();
        const std::size_t T = timings_.size();
        const auto groupOf = [&](const InjectionPlan &plan) -> Group & {
            for (std::size_t w = 0; w < contexts_.size(); ++w) {
                if (contexts_[w]->name != plan.workload)
                    continue;
                for (std::size_t mi = 0; mi < M; ++mi) {
                    if (modes_[mi] != plan.mode)
                        continue;
                    for (std::size_t ti = 0; ti < T; ++ti)
                        if (timings_[ti].name == plan.timing)
                            return groups[(w * M + mi) * T + ti];
                }
            }
            panic("campaign: plan matches no group");
        };
        for (std::size_t i = 0; i < plans.size(); ++i)
            groupOf(plans[i]).planIdx.push_back(i);
        for (Group &g : groups)
            std::sort(g.planIdx.begin(), g.planIdx.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (plans[a].fireIndex != plans[b].fireIndex)
                              return plans[a].fireIndex < plans[b].fireIndex;
                          return plans[a].id < plans[b].id;
                      });

        parallelFor(groups.size(), threads_, [&](std::size_t gi) {
            Group &g = groups[gi];
            if (g.planIdx.empty())
                return;
            core::SimConfig cfg =
                campaignSimConfig(spec_, g.mode, *g.timing);
            if (!spec_.disableRev)
                cfg.sigStorePrototype = &g.ctx->protos.at(g.mode);
            core::Simulator source(g.ctx->program, cfg);
            std::optional<core::Snapshot> snap;
            // Once runUntil() reports the run finished, the source is
            // done for good — re-calling would silently start a fresh
            // run. Remaining plans (fire index beyond the golden end)
            // fall back to cold execution.
            bool exhausted = false;
            for (std::size_t k = 0; k < g.planIdx.size(); ++k) {
                const InjectionPlan &plan = plans[g.planIdx[k]];
                // A hook the golden stream proves never fires, or a
                // tamper confined to bytes the stream never touches
                // again after the fire point, cannot change the run at
                // all: classify Benign without executing (the
                // non-snapshot mode still runs these, so the CI matrix
                // comparison cross-checks the proof).
                if (const std::optional<InjectionResult> fast =
                        provablyBenignResult(*g.ctx, spec_, plan)) {
                    record(plan, *fast);
                    continue;
                }
                if (!exhausted &&
                    (!snap || snap->instrIndex != plan.fireIndex)) {
                    if (source.runUntil(plan.fireIndex))
                        snap = source.capture();
                    else
                        exhausted = true;
                }
                if (exhausted || !snap ||
                    snap->instrIndex != plan.fireIndex) {
                    record(plan,
                           runInjection(*g.ctx, spec_, plan, *g.timing));
                    continue;
                }
                // The last plan firing at this index consumes the
                // snapshot; earlier ones fork a copy of it.
                const bool last_user =
                    k + 1 == g.planIdx.size() ||
                    plans[g.planIdx[k + 1]].fireIndex != plan.fireIndex;
                record(plan, runInjectionFromSnapshot(
                                 *g.ctx, spec_, plan, *g.timing,
                                 last_user ? std::move(*snap)
                                           : core::Snapshot(*snap)));
                if (last_user)
                    snap.reset();
            }
        });
    }

    // Streaming appends escapes in completion order; plan order is the
    // canonical rendering, byte-identical across strategies and thread
    // counts.
    const auto by_plan_id = [](const EscapeRecord &a,
                               const EscapeRecord &b) {
        return a.plan.id < b.plan.id;
    };
    std::sort(m.escapes.begin(), m.escapes.end(), by_plan_id);
    std::sort(m.nearMisses.begin(), m.nearMisses.end(), by_plan_id);

    for (const auto &[key, cell] : m.cells)
        m.total.add(cell);
    return m;
}

// ---------------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------------

namespace
{

void
appendCell(std::string &out, const std::string &klass,
           const std::string &mode, const CellStats &c)
{
    char buf[512];
    const double mean_latency =
        c.detected ? static_cast<double>(c.latencySum) /
                         static_cast<double>(c.detected)
                   : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "{\"class\":\"%s\",\"mode\":\"%s\",\"injections\":%llu,"
                  "\"detected\":%llu,\"crashed\":%llu,\"benign\":%llu,"
                  "\"blind\":%llu,\"escapes\":%llu,\"unfired\":%llu,"
                  "\"off_mechanism\":%llu,\"latency_sum\":%llu,"
                  "\"mean_detection_latency\":%.2f}",
                  klass.c_str(), mode.c_str(),
                  static_cast<unsigned long long>(c.injections),
                  static_cast<unsigned long long>(c.detected),
                  static_cast<unsigned long long>(c.crashed),
                  static_cast<unsigned long long>(c.benign),
                  static_cast<unsigned long long>(c.blind),
                  static_cast<unsigned long long>(c.escapes),
                  static_cast<unsigned long long>(c.unfired),
                  static_cast<unsigned long long>(c.offMechanism),
                  static_cast<unsigned long long>(c.latencySum),
                  mean_latency);
    out += buf;
}

} // namespace

std::string
matrixToJson(const DetectionMatrix &m)
{
    std::string out = "{";
    out += "\"campaign_seed\":" + std::to_string(m.seed);
    out += ",\"injections\":" + std::to_string(m.injections);
    out += ",\"rev_enabled\":";
    out += m.revEnabled ? "true" : "false";
    // Default-backend matrices stay byte-identical to the pre-framework
    // rendering; only non-REV campaigns carry the extra field.
    if (m.backend != validate::Backend::Rev) {
        out += ",\"backend\":\"";
        out += validate::backendName(m.backend);
        out += "\"";
    }
    out += ",\"cells\":[";
    bool first = true;
    for (const auto &[key, cell] : m.cells) {
        if (!first)
            out += ",";
        first = false;
        appendCell(out, key.first, key.second, cell);
    }
    out += "],\"totals\":";
    appendCell(out, "all", "all", m.total);
    out += ",\"escapes\":[";
    first = true;
    for (const EscapeRecord &e : m.escapes) {
        if (!first)
            out += ",";
        first = false;
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "{\"fingerprint\":\"0x%llx\",\"verdict\":\"%s\",",
                      static_cast<unsigned long long>(e.fingerprint),
                      verdictName(e.result.verdict));
        out += buf;
        out += "\"plan\":" + planToJson(e.plan) + "}";
    }
    out += "]}";
    return out;
}

} // namespace rev::redteam
