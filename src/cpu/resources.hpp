/**
 * @file
 * Small timing-resource helpers for the timestamp-based OoO model:
 * per-cycle width limiters, occupancy rings (ROB/IQ/LSQ/fetch queue), and
 * functional-unit pools.
 */

#ifndef REV_CPU_RESOURCES_HPP
#define REV_CPU_RESOURCES_HPP

#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace rev::cpu
{

/**
 * Enforces "at most W events per cycle" for an in-order stage. Callers
 * must present non-decreasing lower bounds.
 */
class WidthLimiter
{
  public:
    explicit WidthLimiter(unsigned width) : width_(width)
    {
        REV_ASSERT(width_ > 0, "WidthLimiter: zero width");
    }

    /**
     * Reserve a slot at the earliest cycle >= @p lower. Written as
     * selects, not branches: whether the bound moves on depends on the
     * simulated data, so branches here mispredict on the host.
     */
    Cycle
    reserve(Cycle lower)
    {
        const bool later = lower > cycle_;
        cycle_ = later ? lower : cycle_;
        used_ = later ? 0 : used_;
        const bool full = used_ == width_;
        cycle_ += full;
        used_ = (full ? 0 : used_) + 1;
        return cycle_;
    }

    void
    reset()
    {
        cycle_ = 0;
        used_ = 0;
    }

  private:
    unsigned width_;
    Cycle cycle_ = 0;
    unsigned used_ = 0;
};

/**
 * A structure with N slots allocated in order and freed at known cycles
 * (ROB, issue queue, LSQ, fetch queue). allocReadyAt() gives the earliest
 * cycle a new allocation can proceed; push() records when the slot being
 * allocated will free.
 */
class OccupancyRing
{
  public:
    explicit OccupancyRing(unsigned capacity) : freeAt_(capacity, 0)
    {
        REV_ASSERT(capacity > 0, "OccupancyRing: zero capacity");
    }

    /** Earliest cycle the oldest slot frees (0 if never used). */
    Cycle allocReadyAt() const { return freeAt_[head_]; }

    /** Consume the oldest slot; it will free at @p freed_at. */
    void
    push(Cycle freed_at)
    {
        freeAt_[head_] = freed_at;
        // Wrap with a compare: the ring sizes are not powers of two, and
        // a modulo here is a 64-bit divide on every instruction.
        if (++head_ == freeAt_.size())
            head_ = 0;
    }

    void
    reset()
    {
        std::fill(freeAt_.begin(), freeAt_.end(), 0);
        head_ = 0;
    }

  private:
    std::vector<Cycle> freeAt_;
    std::size_t head_ = 0;
};

/**
 * A pool of identical functional units.
 */
class FuPool
{
  public:
    explicit FuPool(unsigned count) : freeAt_(count, 0)
    {
        REV_ASSERT(count > 0, "FuPool: zero units");
    }

    /**
     * Acquire the earliest-available unit at or after @p ready; the unit
     * stays busy @p busy_cycles (1 for pipelined units). Returns the issue
     * cycle.
     */
    Cycle
    acquire(Cycle ready, unsigned busy_cycles)
    {
        // The first unit with the earliest free cycle, found with selects
        // rather than data-dependent branches (see WidthLimiter).
        std::size_t best = 0;
        Cycle best_at = freeAt_[0];
        for (std::size_t i = 1; i < freeAt_.size(); ++i) {
            const bool earlier = freeAt_[i] < best_at;
            best = earlier ? i : best;
            best_at = earlier ? freeAt_[i] : best_at;
        }
        const Cycle start = std::max(ready, best_at);
        freeAt_[best] = start + busy_cycles;
        return start;
    }

    void reset() { std::fill(freeAt_.begin(), freeAt_.end(), 0); }

  private:
    std::vector<Cycle> freeAt_;
};

} // namespace rev::cpu

#endif // REV_CPU_RESOURCES_HPP
