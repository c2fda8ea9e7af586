#include "mem/memsys.hpp"

#include "common/logging.hpp"

namespace rev::mem
{

const char *
accessTypeName(AccessType t)
{
    switch (t) {
      case AccessType::DataRead: return "data_read";
      case AccessType::DataWrite: return "data_write";
      case AccessType::ScFill: return "sc_fill";
      case AccessType::InstrFetch: return "instr_fetch";
      case AccessType::Prefetch: return "prefetch";
    }
    return "?";
}

MemorySystem::Port::Port(const MemConfig &cfg, const std::string &port_prefix)
    : prefix(port_prefix),
      l1i(port_prefix + "l1i", cfg.l1iBytes, cfg.l1iAssoc, cfg.lineBytes),
      l1d(port_prefix + "l1d", cfg.l1dBytes, cfg.l1dAssoc, cfg.lineBytes),
      tlbs(cfg.tlb, port_prefix)
{
}

MemorySystem::MemorySystem(const MemConfig &cfg, unsigned num_cores)
    : cfg_(cfg),
      l2_("l2", cfg.l2Bytes, cfg.l2Assoc, cfg.lineBytes),
      dram_(cfg.dram)
{
    REV_ASSERT(num_cores >= 1, "memsys: need at least one core port");
    ports_.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c) {
        std::string prefix;
        if (num_cores > 1) {
            prefix = "c";
            prefix += std::to_string(c);
            prefix += '.';
        }
        ports_.emplace_back(cfg, prefix);
    }
}

void
MemorySystem::advanceDma(Cycle now)
{
    if (cfg_.dmaIntervalCycles == 0)
        return;
    while (nextDmaAt_ <= now) {
        // Each burst targets the current channel's buffer; channels are
        // spread across rows so they occupy different banks over time.
        const Addr addr = cfg_.dmaBufferBase +
                          static_cast<Addr>(dmaChannel_) *
                              cfg_.dram.rowBytes +
                          (dmaBursts_.value() % 64) * cfg_.lineBytes;
        dram_.access(addr, nextDmaAt_);
        ++dmaBursts_;
        dmaChannel_ = (dmaChannel_ + 1) % cfg_.dmaChannels;
        nextDmaAt_ += cfg_.dmaIntervalCycles;
    }
}

AccessResult
MemorySystem::access(Addr addr, AccessType type, Cycle now, unsigned core)
{
    AccessResult res;
    Port &port = ports_[core];
    ++accesses_[idx(type)];
    ++port.accesses[idx(type)];

    const bool is_instr = type == AccessType::InstrFetch ||
                          type == AccessType::Prefetch;
    const bool is_write = type == AccessType::DataWrite;
    SetAssocCache &l1 = is_instr ? port.l1i : port.l1d;
    const unsigned l1_latency =
        is_instr ? cfg_.l1iLatency : cfg_.l1dLatency;

    // Address translation (SC fills share the D-TLB, Sec. VIII).
    const unsigned tlb_extra = port.tlbs.translate(addr, is_instr);
    Cycle t = now + tlb_extra;

    std::optional<Addr> l1_wb;
    if (l1.access(addr, is_write, &l1_wb)) {
        res.l1Hit = true;
        res.completeAt = t + l1_latency;
        return res;
    }
    ++l1Misses_[idx(type)];
    ++port.l1Misses[idx(type)];
    t += l1_latency;

    // An evicted dirty L1 line is absorbed by the L2 (write-back).
    if (l1_wb)
        l2_.access(*l1_wb, true);

    // L2 has a single port; contended requests serialize. When the port
    // is held by a *different* core's request, the queueing delay is
    // cross-core contention — charge it to this core (and to its SC-fill
    // starvation counter when the victim is a signature-cache fill).
    const Cycle l2_start = std::max(t, l2PortFree_);
    if (l2_start > t && lastL2Core_ != core) {
        port.xcoreL2Wait += l2_start - t;
        if (type == AccessType::ScFill)
            port.xcoreScFillWait += l2_start - t;
    }
    lastL2Core_ = core;
    l2PortFree_ = l2_start + 1;

    std::optional<Addr> l2_wb;
    if (l2_.access(addr, is_write, &l2_wb)) {
        res.l2Hit = true;
        res.completeAt = l2_start + cfg_.l2Latency;
        return res;
    }
    ++l2Misses_[idx(type)];
    ++port.l2Misses[idx(type)];

    // Background DMA bursts scheduled before this request reaches the
    // DRAM controller contend for the banks.
    advanceDma(l2_start + cfg_.l2Latency);

    // A dirty L2 victim costs a DRAM burst (bank occupancy only).
    if (l2_wb)
        dram_.access(*l2_wb, l2_start + cfg_.l2Latency);

    res.completeAt = dram_.access(addr, l2_start + cfg_.l2Latency);
    return res;
}

void
MemorySystem::reset()
{
    for (Port &p : ports_) {
        p.l1i.reset();
        p.l1d.reset();
        p.tlbs.reset();
        for (auto &c : p.accesses)
            c.reset();
        for (auto &c : p.l1Misses)
            c.reset();
        for (auto &c : p.l2Misses)
            c.reset();
        p.xcoreL2Wait.reset();
        p.xcoreScFillWait.reset();
    }
    l2_.reset();
    dram_.reset();
    l2PortFree_ = 0;
    lastL2Core_ = 0;
    nextDmaAt_ = 0;
    dmaChannel_ = 0;
    dmaBursts_.reset();
    for (auto &c : accesses_)
        c.reset();
    for (auto &c : l1Misses_)
        c.reset();
    for (auto &c : l2Misses_)
        c.reset();
}

void
MemorySystem::resetStats()
{
    for (Port &p : ports_) {
        p.l1i.resetStats();
        p.l1d.resetStats();
        p.tlbs.resetStats();
        for (auto &c : p.accesses)
            c.reset();
        for (auto &c : p.l1Misses)
            c.reset();
        for (auto &c : p.l2Misses)
            c.reset();
        p.xcoreL2Wait.reset();
        p.xcoreScFillWait.reset();
    }
    l2_.resetStats();
    dram_.resetStats();
    dmaBursts_.reset();
    for (auto &c : accesses_)
        c.reset();
    for (auto &c : l1Misses_)
        c.reset();
    for (auto &c : l2Misses_)
        c.reset();
}

void
MemorySystem::addStats(stats::StatGroup &group) const
{
    // Single-core: the historical row set, byte for byte — every pinned
    // golden depends on this exact order.
    if (ports_.size() == 1) {
        const Port &p = ports_.front();
        p.l1i.addStats(group);
        p.l1d.addStats(group);
        l2_.addStats(group);
        dram_.addStats(group);
        p.tlbs.addStats(group);
        group.add("dma.bursts", &dmaBursts_);
        for (unsigned i = 0; i < kNumAccessTypes; ++i) {
            const auto type = static_cast<AccessType>(i);
            group.add(std::string("req.") + accessTypeName(type) + ".count",
                      &accesses_[i]);
            group.add(std::string("req.") + accessTypeName(type) + ".l1_miss",
                      &l1Misses_[i]);
            group.add(std::string("req.") + accessTypeName(type) + ".l2_miss",
                      &l2Misses_[i]);
        }
        return;
    }

    // Multicore: shared structures + cross-core aggregates first, then a
    // per-core block per port (private L1s/TLBs, per-class traffic, and
    // the cross-core wait counters the contention story is about).
    l2_.addStats(group);
    dram_.addStats(group);
    group.add("dma.bursts", &dmaBursts_);
    for (unsigned i = 0; i < kNumAccessTypes; ++i) {
        const auto type = static_cast<AccessType>(i);
        group.add(std::string("req.") + accessTypeName(type) + ".count",
                  &accesses_[i]);
        group.add(std::string("req.") + accessTypeName(type) + ".l1_miss",
                  &l1Misses_[i]);
        group.add(std::string("req.") + accessTypeName(type) + ".l2_miss",
                  &l2Misses_[i]);
    }
    for (const Port &p : ports_) {
        p.l1i.addStats(group);
        p.l1d.addStats(group);
        p.tlbs.addStats(group);
        for (unsigned i = 0; i < kNumAccessTypes; ++i) {
            const auto type = static_cast<AccessType>(i);
            group.add(p.prefix + "req." + accessTypeName(type) + ".count",
                      &p.accesses[i]);
            group.add(p.prefix + "req." + accessTypeName(type) + ".l1_miss",
                      &p.l1Misses[i]);
            group.add(p.prefix + "req." + accessTypeName(type) + ".l2_miss",
                      &p.l2Misses[i]);
        }
        group.add(p.prefix + "xcore.l2_wait_cycles", &p.xcoreL2Wait);
        group.add(p.prefix + "xcore.sc_fill_wait_cycles",
                  &p.xcoreScFillWait);
    }
}

} // namespace rev::mem
