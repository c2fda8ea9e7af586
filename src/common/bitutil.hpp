/**
 * @file
 * Bit-manipulation helpers used by the cache, TLB, and signature-table
 * indexing logic.
 */

#ifndef REV_COMMON_BITUTIL_HPP
#define REV_COMMON_BITUTIL_HPP

#include <bit>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace rev
{

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPow2(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power-of-two value. */
inline unsigned
log2i(u64 v)
{
    REV_ASSERT(isPow2(v), "log2i of non-power-of-two ", v);
    return static_cast<unsigned>(std::countr_zero(v));
}

/**
 * Number of set bits in @p v. std::popcount compiles to a libgcc call
 * when the target has no POPCNT instruction (the portable build); this
 * bit-parallel count stays inline everywhere.
 */
constexpr u32
popcount64(u64 v)
{
    v = v - ((v >> 1) & 0x5555555555555555ULL);
    v = (v & 0x3333333333333333ULL) + ((v >> 2) & 0x3333333333333333ULL);
    v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<u32>((v * 0x0101010101010101ULL) >> 56);
}

/** Extract bits [lo, hi] (inclusive) of @p v. */
constexpr u64
bits(u64 v, unsigned hi, unsigned lo)
{
    const unsigned width = hi - lo + 1;
    const u64 mask = width >= 64 ? ~u64{0} : ((u64{1} << width) - 1);
    return (v >> lo) & mask;
}

/** Round @p v up to the next multiple of @p align (align: power of two). */
constexpr u64
roundUp(u64 v, u64 align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of @p align (align: power of two). */
constexpr u64
roundDown(u64 v, u64 align)
{
    return v & ~(align - 1);
}

} // namespace rev

#endif // REV_COMMON_BITUTIL_HPP
