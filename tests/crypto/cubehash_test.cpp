/**
 * @file
 * Unit and property tests for the CubeHash implementation.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "crypto/cubehash.hpp"

namespace rev::crypto
{
namespace
{

Digest
hashStr(const std::string &s, unsigned rounds = 5)
{
    return CubeHash::hash(reinterpret_cast<const u8 *>(s.data()), s.size(),
                          rounds);
}

TEST(CubeHash, Deterministic)
{
    EXPECT_EQ(hashStr("hello world"), hashStr("hello world"));
}

TEST(CubeHash, EmptyMessageHashable)
{
    const Digest d = hashStr("");
    // Must not be all-zero (the permutation ran).
    bool nonzero = false;
    for (u8 b : d)
        nonzero |= (b != 0);
    EXPECT_TRUE(nonzero);
}

TEST(CubeHash, SingleBitFlipChangesDigest)
{
    std::string msg = "the quick brown fox jumps over the lazy dog";
    const Digest base = hashStr(msg);
    for (std::size_t byte = 0; byte < msg.size(); byte += 5) {
        std::string mutated = msg;
        mutated[byte] ^= 1;
        EXPECT_NE(hashStr(mutated), base)
            << "flip at byte " << byte << " did not change digest";
    }
}

TEST(CubeHash, AvalancheOnTruncatedSignature)
{
    // The 4-byte truncated signature (Sec. V.C) should change for single
    // bit flips with overwhelming probability.
    Rng rng(99);
    int unchanged = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        std::vector<u8> msg(64);
        for (auto &b : msg)
            b = static_cast<u8>(rng.next());
        const u32 sig = CubeHash::signature32(
            CubeHash::hash(msg.data(), msg.size()));
        msg[rng.below(msg.size())] ^= static_cast<u8>(1u << rng.below(8));
        const u32 sig2 = CubeHash::signature32(
            CubeHash::hash(msg.data(), msg.size()));
        unchanged += (sig == sig2);
    }
    EXPECT_EQ(unchanged, 0);
}

TEST(CubeHash, IncrementalMatchesOneShot)
{
    const std::string msg(1000, 'x');
    CubeHash h(5);
    // Feed in irregular chunks.
    std::size_t off = 0;
    const std::size_t chunks[] = {1, 7, 31, 100, 400, 461};
    for (std::size_t c : chunks) {
        h.update(reinterpret_cast<const u8 *>(msg.data()) + off, c);
        off += c;
    }
    ASSERT_EQ(off, msg.size());
    EXPECT_EQ(h.finalize(), hashStr(msg));
}

TEST(CubeHash, ResetAllowsReuse)
{
    CubeHash h(5);
    h.update(reinterpret_cast<const u8 *>("abc"), 3);
    const Digest first = h.finalize();
    h.reset();
    h.update(reinterpret_cast<const u8 *>("abc"), 3);
    EXPECT_EQ(h.finalize(), first);
}

TEST(CubeHash, RoundsChangeDigest)
{
    EXPECT_NE(hashStr("message", 5), hashStr("message", 16));
}

TEST(CubeHash, LengthMattersEvenWithZeroPadding)
{
    // "a" and "a\0" must differ: padding is unambiguous.
    const Digest d1 = CubeHash::hash(reinterpret_cast<const u8 *>("a"), 1);
    const u8 two[] = {'a', 0};
    const Digest d2 = CubeHash::hash(two, 2);
    EXPECT_NE(d1, d2);
}

TEST(CubeHash, RejectsBadParameters)
{
    EXPECT_THROW(CubeHash(0, 32, 256), FatalError);
    EXPECT_THROW(CubeHash(5, 0, 256), FatalError);
    EXPECT_THROW(CubeHash(5, 129, 256), FatalError);
    EXPECT_THROW(CubeHash(5, 32, 7), FatalError);
    EXPECT_THROW(CubeHash(5, 32, 600), FatalError);
    // Digest holds 256 bits: longer digests are refused, not truncated.
    EXPECT_THROW(CubeHash(5, 32, 264), FatalError);
    EXPECT_THROW(CubeHash(5, 32, 512), FatalError);
}

/** Property sweep: no collisions among many distinct random messages. */
class CubeHashCollision : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CubeHashCollision, NoCollisionsAcrossRandomMessages)
{
    const unsigned rounds = GetParam();
    Rng rng(1234 + rounds);
    std::set<std::array<u8, 32>> digests;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        std::vector<u8> msg(16 + rng.below(100));
        for (auto &b : msg)
            b = static_cast<u8>(rng.next());
        digests.insert(CubeHash::hash(msg.data(), msg.size(), rounds));
    }
    // Random messages may repeat, but digest count must match distinct
    // message count; with 2000 random >=16-byte messages, collisions in
    // the *digest* would indicate a broken permutation.
    EXPECT_GE(digests.size(), static_cast<std::size_t>(n - 2));
}

INSTANTIATE_TEST_SUITE_P(Rounds, CubeHashCollision,
                         ::testing::Values(1u, 2u, 5u, 8u));

} // namespace
} // namespace rev::crypto
