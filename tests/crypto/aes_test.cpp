/**
 * @file
 * AES-128 known-answer and property tests.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/random.hpp"
#include "crypto/aes.hpp"

namespace rev::crypto
{
namespace
{

/** FIPS-197 Appendix C.1 example vector (AES-128). */
TEST(Aes128, Fips197KnownAnswer)
{
    const AesKey key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                        0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    AesBlock block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                      0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
    const AesBlock expect = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                             0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};

    Aes128 aes(key);
    aes.encryptBlock(block.data());
    EXPECT_EQ(block, expect);
}

/** Parse 32 hex digits into a block. */
AesBlock
hexBlock(const char *hex)
{
    AesBlock b{};
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<u8>(std::stoul(std::string(hex + 2 * i, 2),
                                          nullptr, 16));
    return b;
}

/** Key of FIPS-197 Appendix B and the SP 800-38A AES-128 examples. */
const AesKey kSp80038aKey = hexBlock("2b7e151628aed2a6abf7158809cf4f3c");

/** FIPS-197 Appendix B cipher example. */
TEST(Aes128, Fips197AppendixB)
{
    AesBlock block = hexBlock("3243f6a8885a308d313198a2e0370734");
    Aes128 aes(kSp80038aKey);
    aes.encryptBlock(block.data());
    EXPECT_EQ(block, hexBlock("3925841d02dc09fbdc118597196a0b32"));
    aes.decryptBlock(block.data());
    EXPECT_EQ(block, hexBlock("3243f6a8885a308d313198a2e0370734"));
}

/** SP 800-38A F.1.1 / F.1.2: ECB-AES128, four blocks both ways. */
TEST(Aes128, Sp80038aEcbKnownAnswers)
{
    const char *const vectors[][2] = {
        {"6bc1bee22e409f96e93d7e117393172a",
         "3ad77bb40d7a3660a89ecaf32466ef97"},
        {"ae2d8a571e03ac9c9eb76fac45af8e51",
         "f5d3d58503b9699de785895a96fdbaaf"},
        {"30c81c46a35ce411e5fbc1191a0a52ef",
         "43b1cd7f598ece23881b00e3ed030688"},
        {"f69f2445df4f9b17ad2b417be66c3710",
         "7b0c785e27e8ad3f8223207104725dd4"},
    };
    Aes128 aes(kSp80038aKey);
    for (const auto &[plain, cipher] : vectors) {
        AesBlock block = hexBlock(plain);
        aes.encryptBlock(block.data());
        EXPECT_EQ(block, hexBlock(cipher)) << plain;
        block = hexBlock(cipher);
        aes.decryptBlock(block.data());
        EXPECT_EQ(block, hexBlock(plain)) << cipher;
    }
}

TEST(Aes128, DecryptInvertsEncrypt)
{
    Rng rng(11);
    AesKey key;
    for (auto &b : key)
        b = static_cast<u8>(rng.next());
    Aes128 aes(key);

    for (int t = 0; t < 100; ++t) {
        AesBlock block, orig;
        for (auto &b : block)
            b = static_cast<u8>(rng.next());
        orig = block;
        aes.encryptBlock(block.data());
        EXPECT_NE(block, orig);
        aes.decryptBlock(block.data());
        EXPECT_EQ(block, orig);
    }
}

TEST(Aes128, DifferentKeysDifferentCiphertext)
{
    AesKey k1{}, k2{};
    k2[0] = 1;
    AesBlock b1{}, b2{};
    Aes128(k1).encryptBlock(b1.data());
    Aes128(k2).encryptBlock(b2.data());
    EXPECT_NE(b1, b2);
}

TEST(Aes128, CtrRoundTrip)
{
    Rng rng(22);
    AesKey key;
    for (auto &b : key)
        b = static_cast<u8>(rng.next());
    Aes128 aes(key);

    std::vector<u8> data(1000), orig;
    for (auto &b : data)
        b = static_cast<u8>(rng.next());
    orig = data;

    aes.ctrCrypt(data, 42);
    EXPECT_NE(data, orig);
    aes.ctrCrypt(data, 42);
    EXPECT_EQ(data, orig);
}

TEST(Aes128, CtrNonceSeparatesStreams)
{
    AesKey key{};
    Aes128 aes(key);
    std::vector<u8> a(64, 0), b(64, 0);
    aes.ctrCrypt(a, 1);
    aes.ctrCrypt(b, 2);
    EXPECT_NE(a, b);
}

TEST(Aes128, CtrCryptAtSlicesEquivalentToFullStream)
{
    // Decrypting any sub-range at its stream offset must equal the same
    // bytes of a whole-stream decrypt -- the property the table walker
    // relies on to decrypt single records.
    Rng rng(77);
    AesKey key;
    for (auto &b : key)
        b = static_cast<u8>(rng.next());
    Aes128 aes(key);

    std::vector<u8> plain(512);
    for (auto &b : plain)
        b = static_cast<u8>(rng.next());

    std::vector<u8> stream = plain;
    aes.ctrCrypt(stream, 5); // ciphertext

    for (int t = 0; t < 200; ++t) {
        const std::size_t off = rng.below(stream.size());
        const std::size_t len =
            1 + rng.below(stream.size() - off);
        std::vector<u8> slice(stream.begin() + off,
                              stream.begin() + off + len);
        aes.ctrCryptAt(slice.data(), slice.size(), 5, off);
        ASSERT_EQ(0, std::memcmp(slice.data(), plain.data() + off, len))
            << "off=" << off << " len=" << len;
    }
}

TEST(Aes128, CtrCryptAtCounterAbove32Bits)
{
    // A slice whose counter block index exceeds 2^32 must use all 64
    // counter bits. Reference: a full-stream pass over the enclosing
    // blocks, computed from counter-block encryptions directly.
    Rng rng(91);
    AesKey key;
    for (auto &b : key)
        b = static_cast<u8>(rng.next());
    Aes128 aes(key);
    const u64 nonce = 0x0123456789abcdefULL;
    const u64 first_counter = (u64{1} << 32) + 3;

    std::vector<u8> stream(5 * 16, 0);
    for (u64 blk = 0; blk < 5; ++blk) {
        u8 *ks = stream.data() + 16 * blk;
        for (int i = 0; i < 8; ++i) {
            ks[i] = static_cast<u8>(nonce >> (8 * i));
            ks[8 + i] = static_cast<u8>((first_counter + blk) >> (8 * i));
        }
        aes.encryptBlock(ks);
    }

    const u64 base = first_counter * 16;
    std::vector<u8> zeros(stream.size(), 0);
    aes.ctrCryptAt(zeros.data(), zeros.size(), nonce, base);
    EXPECT_EQ(zeros, stream);

    // An unaligned slice crossing block boundaries.
    std::vector<u8> slice(37, 0);
    aes.ctrCryptAt(slice.data(), slice.size(), nonce, base + 7);
    EXPECT_EQ(0, std::memcmp(slice.data(), stream.data() + 7, slice.size()));
}

TEST(Aes128, CtrNonMultipleOf16Length)
{
    AesKey key{};
    Aes128 aes(key);
    std::vector<u8> data(37, 0xcc), orig = data;
    aes.ctrCrypt(data, 9);
    aes.ctrCrypt(data, 9);
    EXPECT_EQ(data, orig);
}

} // namespace
} // namespace rev::crypto
