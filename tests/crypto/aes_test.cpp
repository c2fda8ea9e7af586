/**
 * @file
 * AES-128 known-answer and property tests.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hpp"
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

/** Pinned CTR keystream: 48 bytes from stream offset 5 (a partial first
 *  block, two whole blocks, a partial last one), as the T-table kernel
 *  produced it before the AES-NI kernel existed. */
TEST(Aes128, CtrKeystreamKnownAnswer)
{
    AesKey key;
    for (int i = 0; i < 16; ++i)
        key[i] = static_cast<u8>(i * 17 + 3);
    const std::vector<u8> want = {
        0xf6, 0x05, 0x31, 0x33, 0x7a, 0x0b, 0xc5, 0xd4, 0x40, 0xf2, 0x76,
        0xc2, 0xae, 0x06, 0x90, 0x24, 0x36, 0x7e, 0xac, 0x2a, 0xdd, 0x5b,
        0xeb, 0x3c, 0xb3, 0xa2, 0xc4, 0x43, 0x79, 0xc6, 0x4e, 0xdc, 0xa1,
        0x5a, 0x37, 0x85, 0xfc, 0x1f, 0x16, 0xf5, 0x71, 0xd7, 0xc0, 0x6e,
        0xf5, 0x0a, 0xd9, 0x19};
    const Aes128 aes(key);
    const u64 nonce = 0x0123456789abcdefULL;
    std::vector<u8> ks(want.size(), 0);
    aes.ctrCryptAt(ks.data(), ks.size(), nonce, 5);
    EXPECT_EQ(ks, want);
    ks.assign(want.size(), 0);
    detail::ctrCryptAtWith(detail::CtrKernel::TTable, aes, ks.data(),
                           ks.size(), nonce, 5);
    EXPECT_EQ(ks, want);
}

/** The AES-NI and T-table CTR kernels produce the same bytes at random
 *  stream offsets (unaligned ones included) and lengths (under one
 *  block, and across many four-block passes). The default entry point
 *  agrees with both. */
TEST(Aes128, CtrAesniMatchesTTable)
{
    EXPECT_EQ(std::string(aesImpl()),
              detail::aesniSupported() ? "aesni" : "ttable");
    Rng rng(4242);
    for (int t = 0; t < 500; ++t) {
        AesKey key;
        for (auto &b : key)
            b = static_cast<u8>(rng.next());
        const Aes128 aes(key);
        const u64 nonce = rng.next();
        u64 offset = rng.below(4096);
        if (t % 3 == 0)
            offset = 16 * rng.below(256); // block-aligned
        const std::size_t len =
            t % 4 == 0 ? rng.below(16) : rng.below(t % 4 == 1 ? 64 : 700);
        std::vector<u8> data(len);
        for (auto &b : data)
            b = static_cast<u8>(rng.next());

        std::vector<u8> ttable = data;
        detail::ctrCryptAtWith(detail::CtrKernel::TTable, aes,
                               ttable.data(), len, nonce, offset);
        std::vector<u8> active = data;
        aes.ctrCryptAt(active.data(), len, nonce, offset);
        ASSERT_EQ(active, ttable) << "offset=" << offset << " len=" << len;
        if (detail::aesniSupported()) {
            std::vector<u8> aesni = data;
            detail::ctrCryptAtWith(detail::CtrKernel::AesNi, aes,
                                   aesni.data(), len, nonce, offset);
            ASSERT_EQ(aesni, ttable) << "offset=" << offset << " len=" << len;
        }
    }
    if (!detail::aesniSupported()) {
        u8 byte = 0;
        EXPECT_THROW(detail::ctrCryptAtWith(detail::CtrKernel::AesNi,
                                            Aes128(AesKey{}), &byte, 1, 0, 0),
                     FatalError);
    }
}

} // namespace
} // namespace rev::crypto
