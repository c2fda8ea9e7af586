/**
 * @file
 * Unit tests for bit utilities.
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/bitutil.hpp"

namespace rev
{
namespace
{

TEST(BitUtil, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(BitUtil, Popcount64MatchesStdPopcount)
{
    EXPECT_EQ(popcount64(0), 0u);
    EXPECT_EQ(popcount64(~0ull), 64u);
    EXPECT_EQ(popcount64(1ull << 63), 1u);
    u64 x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 1000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        EXPECT_EQ(popcount64(x), static_cast<u32>(std::popcount(x))) << x;
        EXPECT_EQ(popcount64(x & (x >> 3)),
                  static_cast<u32>(std::popcount(x & (x >> 3))));
    }
}

TEST(BitUtil, Log2i)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2), 1u);
    EXPECT_EQ(log2i(4096), 12u);
    EXPECT_THROW(log2i(3), PanicError);
}

TEST(BitUtil, BitsExtraction)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffu);
    EXPECT_EQ(bits(0xdeadbeef, 7, 4), 0xeu);
    EXPECT_EQ(bits(~u64{0}, 63, 0), ~u64{0});
}

TEST(BitUtil, Rounding)
{
    EXPECT_EQ(roundUp(0, 64), 0u);
    EXPECT_EQ(roundUp(1, 64), 64u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(roundDown(65, 64), 64u);
    EXPECT_EQ(roundDown(63, 64), 0u);
}

} // namespace
} // namespace rev
