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

    /** Reserve a slot at the earliest cycle >= @p lower. */
    Cycle
    reserve(Cycle lower)
    {
        if (lower > cycle_) {
            cycle_ = lower;
            used_ = 0;
        }
        if (used_ == width_) {
            ++cycle_;
            used_ = 0;
        }
        ++used_;
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
        std::size_t best = 0;
        for (std::size_t i = 1; i < freeAt_.size(); ++i)
            if (freeAt_[i] < freeAt_[best])
                best = i;
        const Cycle start = std::max(ready, freeAt_[best]);
        freeAt_[best] = start + busy_cycles;
        return start;
    }

    void reset() { std::fill(freeAt_.begin(), freeAt_.end(), 0); }

  private:
    std::vector<Cycle> freeAt_;
};

} // namespace rev::cpu

#endif // REV_CPU_RESOURCES_HPP
