#include "crypto/aes.hpp"

#include <algorithm>
#include <cstring>

#include "common/logging.hpp"

// GCC and Clang compile the AES-NI kernel into a baseline-ISA binary via
// __attribute__((target("aes"))); it is chosen at run time with
// __builtin_cpu_supports.
#if (defined(__x86_64__) || defined(__i386__)) &&                            \
    (defined(__GNUC__) || defined(__clang__))
#define REV_AES_NI 1
#include <immintrin.h>
#else
#define REV_AES_NI 0
#endif

namespace rev::crypto
{

namespace
{

constexpr u8 kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16,
};

u8 kInvSbox[256];
bool invSboxInitDone = []() {
    for (int i = 0; i < 256; ++i)
        kInvSbox[kSbox[i]] = static_cast<u8>(i);
    return true;
}();

constexpr u8
xtime(u8 x)
{
    return static_cast<u8>((x << 1) ^ ((x >> 7) * 0x1b));
}

/** GF(2^8) multiply. */
u8
gmul(u8 a, u8 b)
{
    u8 p = 0;
    while (b) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

/**
 * Encryption T-tables. A state column is a big-endian word (row 0 in the
 * top byte); kTe[r][x] is the MixColumns column produced by byte x in
 * row r after SubBytes: kTe[0][x] = (2·S[x], S[x], S[x], 3·S[x]) and
 * kTe[r] is kTe[0] rotated right by 8·r bits.
 */
constexpr std::array<std::array<u32, 256>, 4> kTe = []() {
    std::array<std::array<u32, 256>, 4> t{};
    for (int x = 0; x < 256; ++x) {
        const u8 s = kSbox[x];
        const u32 w = (u32{xtime(s)} << 24) | (u32{s} << 16) |
                      (u32{s} << 8) | u32{static_cast<u8>(xtime(s) ^ s)};
        for (int r = 0; r < 4; ++r)
            t[r][x] = r == 0 ? w : (w >> (8 * r)) | (w << (32 - 8 * r));
    }
    return t;
}();

u32
loadBe32(const u8 *p)
{
    return (u32{p[0]} << 24) | (u32{p[1]} << 16) | (u32{p[2]} << 8) |
           u32{p[3]};
}

void
storeBe32(u8 *p, u32 v)
{
    p[0] = static_cast<u8>(v >> 24);
    p[1] = static_cast<u8>(v >> 16);
    p[2] = static_cast<u8>(v >> 8);
    p[3] = static_cast<u8>(v);
}

/** Byte @p r (0 = top) of word @p w. */
constexpr unsigned
byteAt(u32 w, unsigned r)
{
    return (w >> (24 - 8 * r)) & 0xff;
}

void
invSubBytes(u8 *s)
{
    for (int i = 0; i < 16; ++i)
        s[i] = kInvSbox[s[i]];
}

// State is column-major: s[4*col + row].
void
invShiftRows(u8 *s)
{
    u8 t[16];
    std::memcpy(t, s, 16);
    for (int c = 0; c < 4; ++c)
        for (int r = 0; r < 4; ++r)
            s[4 * ((c + r) % 4) + r] = t[4 * c + r];
}

void
invMixColumns(u8 *s)
{
    for (int c = 0; c < 4; ++c) {
        u8 *col = s + 4 * c;
        const u8 a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
        col[1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
        col[2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
        col[3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
    }
}

/** XOR the four round-key words @p rk into the state. */
void
addRoundKey(u8 *s, const u32 *rk)
{
    for (int c = 0; c < 4; ++c)
        storeBe32(s + 4 * c, loadBe32(s + 4 * c) ^ rk[c]);
}

} // namespace

Aes128::Aes128(const AesKey &key)
{
    // FIPS-197 key expansion for Nk=4, Nr=10.
    for (int i = 0; i < 4; ++i)
        roundKeys_[i] = loadBe32(key.data() + 4 * i);
    u8 rcon = 1;
    for (int i = 4; i < 44; ++i) {
        u32 temp = roundKeys_[i - 1];
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon
            temp = (u32{static_cast<u8>(kSbox[byteAt(temp, 1)] ^ rcon)}
                    << 24) |
                   (u32{kSbox[byteAt(temp, 2)]} << 16) |
                   (u32{kSbox[byteAt(temp, 3)]} << 8) |
                   u32{kSbox[byteAt(temp, 0)]};
            rcon = xtime(rcon);
        }
        roundKeys_[i] = roundKeys_[i - 4] ^ temp;
    }
    for (int i = 0; i < 44; ++i)
        storeBe32(roundKeyBytes_.data() + 4 * i, roundKeys_[i]);
}

void
Aes128::encryptBlock(u8 *block) const
{
    const u32 *rk = roundKeys_.data();
    u32 s0 = loadBe32(block) ^ rk[0];
    u32 s1 = loadBe32(block + 4) ^ rk[1];
    u32 s2 = loadBe32(block + 8) ^ rk[2];
    u32 s3 = loadBe32(block + 12) ^ rk[3];
    // Rounds 1..9: SubBytes, ShiftRows and MixColumns in one lookup per
    // byte. ShiftRows makes row r of output column c come from input
    // column c + r.
    for (int r = 1; r <= 9; ++r) {
        rk += 4;
        const u32 t0 = kTe[0][byteAt(s0, 0)] ^ kTe[1][byteAt(s1, 1)] ^
                       kTe[2][byteAt(s2, 2)] ^ kTe[3][byteAt(s3, 3)] ^ rk[0];
        const u32 t1 = kTe[0][byteAt(s1, 0)] ^ kTe[1][byteAt(s2, 1)] ^
                       kTe[2][byteAt(s3, 2)] ^ kTe[3][byteAt(s0, 3)] ^ rk[1];
        const u32 t2 = kTe[0][byteAt(s2, 0)] ^ kTe[1][byteAt(s3, 1)] ^
                       kTe[2][byteAt(s0, 2)] ^ kTe[3][byteAt(s1, 3)] ^ rk[2];
        const u32 t3 = kTe[0][byteAt(s3, 0)] ^ kTe[1][byteAt(s0, 1)] ^
                       kTe[2][byteAt(s1, 2)] ^ kTe[3][byteAt(s2, 3)] ^ rk[3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }
    // Final round: no MixColumns.
    rk += 4;
    auto last = [](u32 a, u32 b, u32 c, u32 d) {
        return (u32{kSbox[byteAt(a, 0)]} << 24) |
               (u32{kSbox[byteAt(b, 1)]} << 16) |
               (u32{kSbox[byteAt(c, 2)]} << 8) | u32{kSbox[byteAt(d, 3)]};
    };
    storeBe32(block, last(s0, s1, s2, s3) ^ rk[0]);
    storeBe32(block + 4, last(s1, s2, s3, s0) ^ rk[1]);
    storeBe32(block + 8, last(s2, s3, s0, s1) ^ rk[2]);
    storeBe32(block + 12, last(s3, s0, s1, s2) ^ rk[3]);
}

void
Aes128::decryptBlock(u8 *block) const
{
    addRoundKey(block, roundKeys_.data() + 40);
    for (int r = 9; r >= 1; --r) {
        invShiftRows(block);
        invSubBytes(block);
        addRoundKey(block, roundKeys_.data() + 4 * r);
        invMixColumns(block);
    }
    invShiftRows(block);
    invSubBytes(block);
    addRoundKey(block, roundKeys_.data());
}

void
Aes128::ctrCrypt(u8 *data, std::size_t len, u64 nonce) const
{
    ctrCryptAt(data, len, nonce, 0);
}

void
Aes128::ctrCryptAt(u8 *data, std::size_t len, u64 nonce,
                   u64 byte_offset) const
{
    detail::ctrCryptAtWith(detail::aesniSupported() ? detail::CtrKernel::AesNi
                                                    : detail::CtrKernel::TTable,
                           *this, data, len, nonce, byte_offset);
}

namespace
{

#if REV_AES_NI

/**
 * Keystream blocks @p counter .. @p counter + 3 into @p ks with AES-NI:
 * four independent aesenc chains hide the instruction's latency.
 */
__attribute__((target("aes"))) void
keystreamAesni(const u8 *round_keys, u64 nonce, u64 counter, u8 *ks)
{
    const auto *rk = reinterpret_cast<const __m128i *>(round_keys);
    __m128i b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = _mm_xor_si128(
            _mm_set_epi64x(static_cast<long long>(counter + i),
                           static_cast<long long>(nonce)),
            _mm_loadu_si128(rk));
    for (int r = 1; r < 10; ++r) {
        const __m128i k = _mm_loadu_si128(rk + r);
        for (int i = 0; i < 4; ++i)
            b[i] = _mm_aesenc_si128(b[i], k);
    }
    const __m128i last = _mm_loadu_si128(rk + 10);
    for (int i = 0; i < 4; ++i)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(ks) + i,
                         _mm_aesenclast_si128(b[i], last));
}

#else

void
keystreamAesni(const u8 *, u64, u64, u8 *)
{
    panic("AES-NI kernel without AES-NI");
}

#endif // REV_AES_NI

} // namespace

const char *
aesImpl()
{
    return detail::aesniSupported() ? "aesni" : "ttable";
}

namespace detail
{

bool
aesniSupported()
{
#if REV_AES_NI
    static const bool has = __builtin_cpu_supports("aes") != 0;
    return has;
#else
    return false;
#endif
}

void
ctrCryptAtWith(CtrKernel kernel, const Aes128 &aes, u8 *data,
               std::size_t len, u64 nonce, u64 byte_offset)
{
    const bool aesni = kernel == CtrKernel::AesNi;
    if (aesni && !aesniSupported())
        fatal("AES: the CPU has no AES-NI");
    u64 counter = byte_offset / 16;
    std::size_t skip = byte_offset % 16;
    while (len > 0) {
        // Up to four keystream blocks; a counter block is the nonce
        // then the block counter, both little-endian.
        alignas(16) u8 ks[64];
        const std::size_t blocks =
            std::min<std::size_t>(4, (skip + len + 15) / 16);
        if (aesni) {
            keystreamAesni(aes.roundKeyBytes_.data(), nonce, counter, ks);
        } else {
            for (std::size_t b = 0; b < blocks; ++b) {
                u8 *block = ks + 16 * b;
                for (int i = 0; i < 8; ++i) {
                    block[i] = static_cast<u8>(nonce >> (8 * i));
                    block[8 + i] = static_cast<u8>((counter + b) >> (8 * i));
                }
                aes.encryptBlock(block);
            }
        }
        const std::size_t take = std::min<std::size_t>(16 * blocks - skip, len);
        for (std::size_t i = 0; i < take; ++i)
            data[i] ^= ks[skip + i];
        data += take;
        len -= take;
        counter += blocks;
        skip = 0;
    }
}

} // namespace detail

} // namespace rev::crypto
