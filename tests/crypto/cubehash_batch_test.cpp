/**
 * @file
 * Equivalence tests for the CubeHash batch hasher: every message of
 * every batch must produce exactly the digest the one-message hasher
 * produces, for every batch size, message length, and round count —
 * the contract that lets the table builder and the CHG batch block
 * hashes without changing any simulated result.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "crypto/cubehash.hpp"

namespace rev::crypto
{
namespace
{

std::vector<u8>
randomMsg(Rng &rng, std::size_t len)
{
    std::vector<u8> msg(len);
    for (auto &b : msg)
        b = static_cast<u8>(rng.next());
    return msg;
}

/** Hash @p msgs in one batch. */
std::vector<Digest>
batch(const std::vector<std::vector<u8>> &msgs, unsigned rounds)
{
    std::vector<HashMsg> in;
    for (const auto &m : msgs)
        in.push_back({m.data(), m.size()});
    std::vector<Digest> out(msgs.size());
    cubehashBatch(in.data(), in.size(), rounds, out.data());
    return out;
}

/** Pinned known answer: CubeHash5/32-256 of a fixed string, through
 *  the one-message hasher and through every lane of a full batch. */
TEST(CubeHashBatch, PinnedKnownAnswer)
{
    const std::string s = "run-time validation of program executions";
    const Digest want = {
        0xbd, 0x1e, 0x2b, 0x71, 0x08, 0x5e, 0xfe, 0x6d, 0xdf, 0xe1, 0x65,
        0x69, 0x9e, 0xbd, 0x7f, 0xd1, 0xe8, 0xa3, 0x75, 0x36, 0x03, 0x7c,
        0x8e, 0x7f, 0x8c, 0x73, 0x3a, 0x5e, 0xf0, 0xd5, 0x24, 0xbd};
    EXPECT_EQ(CubeHash::hash(reinterpret_cast<const u8 *>(s.data()),
                             s.size(), 5),
              want);

    const std::vector<std::vector<u8>> msgs(
        16, std::vector<u8>(s.begin(), s.end()));
    const std::vector<Digest> out = batch(msgs, 5);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], want) << "message " << i;
}

/** Batch sizes on both sides of the 16-lane kernel's threshold and of
 *  its lane count, each message a random length whose remainder mod 32
 *  cycles through all 32 values. */
TEST(CubeHashBatch, SizesLengthsAndRoundsMatchOneMessageHasher)
{
    Rng rng(2026);
    for (const std::size_t n : {1, 4, 15, 16, 17, 1000}) {
        for (unsigned rounds = 1; rounds <= 8; ++rounds) {
            std::vector<std::vector<u8>> msgs;
            for (std::size_t i = 0; i < n; ++i)
                msgs.push_back(
                    randomMsg(rng, 32 * rng.below(5) + (i + rounds) % 32));
            const std::vector<Digest> out = batch(msgs, rounds);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(out[i], CubeHash::hash(msgs[i].data(),
                                                 msgs[i].size(), rounds))
                    << "n=" << n << " rounds=" << rounds << " message=" << i
                    << " len=" << msgs[i].size();
        }
    }
}

/** Ragged batches: empty messages, exact block multiples, 15- and
 *  16-byte remainders and long messages mixed, so lanes finish at very
 *  different steps and take new messages mid-batch. */
TEST(CubeHashBatch, RaggedLengthsMatchOneMessageHasher)
{
    Rng rng(7);
    for (int iter = 0; iter < 20; ++iter) {
        const unsigned rounds = static_cast<unsigned>(rng.range(1, 8));
        std::vector<std::vector<u8>> msgs;
        const std::size_t n = 1 + rng.below(80);
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t len;
            switch (rng.below(5)) {
              case 0: len = 0; break;
              case 1: len = 32 * rng.below(6); break;
              case 2: len = 32 * rng.below(6) + 15 + rng.below(2); break;
              case 3: len = 200 + rng.below(400); break;
              default: len = rng.below(100); break;
            }
            msgs.push_back(randomMsg(rng, len));
        }
        const std::vector<Digest> out = batch(msgs, rounds);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], CubeHash::hash(msgs[i].data(), msgs[i].size(),
                                             rounds))
                << "iter=" << iter << " rounds=" << rounds
                << " message=" << i << " len=" << msgs[i].size();
    }
}

TEST(CubeHashBatch, RejectsZeroRounds)
{
    const u8 byte = 0;
    const HashMsg msg{&byte, 1};
    Digest out[1];
    EXPECT_THROW(cubehashBatch(&msg, 1, 0, out), FatalError);
}

/** The batch names the kernel it runs: the 16-lane AVX-512F kernel on a
 *  host that has AVX-512F (unless SIMD hashing is compiled out), else
 *  the single-state kernel one message at a time. */
TEST(CubeHashBatch, ReportsKernelThatRuns)
{
    const std::string impl = cubehashBatchImpl();
    const std::string single = cubehashImpl();
    EXPECT_TRUE(single == "avx2" || single == "sse2" || single == "scalar");
    bool want_x16 = false;
#if !defined(REV_DISABLE_SIMD_HASH) && defined(__x86_64__) &&                 \
    (defined(__GNUC__) || defined(__clang__))
    want_x16 = __builtin_cpu_supports("avx512f") != 0;
#endif
    if (want_x16) {
        EXPECT_EQ(impl, "avx512x16");
        EXPECT_EQ(cubehashBatchLanes(), 16u);
    } else {
        EXPECT_EQ(impl, single);
        EXPECT_EQ(cubehashBatchLanes(), 1u);
    }
#if defined(REV_DISABLE_SIMD_HASH)
    EXPECT_EQ(single, "scalar");
#endif
}

} // namespace
} // namespace rev::crypto
