/**
 * @file
 * CubeHash round kernels for cubehash.cpp, all bit-identical to the
 * reference roundScalar() (tests/crypto pins that):
 *
 *  - permuteSse2/Avx2: one state; the spec's swap steps become
 *    xor-permuted indexing, i.e. register renamings and in-register
 *    shuffles (see the comment on roundScalar).
 *  - stepX16Avx512:    sixteen independent states, word-major (one zmm
 *    register per state word), for the batch hasher.
 *
 * SSE2 is compiled in on any x86-64. The AVX2 and AVX-512F kernels are
 * target(...) clones chosen at run time, so a baseline build still uses
 * them on capable hardware. -DREV_DISABLE_SIMD_HASH leaves only the
 * portable scalar round.
 */

#ifndef REV_CRYPTO_CUBEHASH_ROUND_HPP
#define REV_CRYPTO_CUBEHASH_ROUND_HPP

#include <array>

#include "common/types.hpp"

#if !defined(REV_DISABLE_SIMD_HASH) &&                                       \
    (defined(__AVX2__) || defined(__SSE2__) || defined(__x86_64__) ||        \
     defined(_M_X64))
#define REV_CUBEHASH_SIMD 1
#include <immintrin.h>
#else
#define REV_CUBEHASH_SIMD 0
#endif

// GCC and Clang compile the AVX2 and AVX-512F kernels into a
// baseline-ISA binary via __attribute__((target(...))); they are chosen at
// run time with __builtin_cpu_supports, so neither needs -mavx2 /
// -mavx512f (or REV_NATIVE_ARCH) at configure time.
#if REV_CUBEHASH_SIMD && (defined(__GNUC__) || defined(__clang__))
#define REV_CUBEHASH_DISPATCH 1
#define REV_CH_TARGET_AVX2 __attribute__((target("avx2")))
#define REV_CH_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define REV_CUBEHASH_DISPATCH 0
#endif

namespace rev::crypto::detail
{

inline u32
rotl32(u32 x, int k)
{
    return (x << k) | (x >> (32 - k));
}

/**
 * One round of the CubeHash permutation (ten steps). The spec's in-place
 * add/rotate/swap/xor sequence is folded into gather-style assignments
 * over fresh temporaries — the swap steps become xor-permuted indexing —
 * which the compiler can keep in registers and auto-vectorize. With the
 * halves A = x[0..15], B = x[16..31] and the spec's steps numbered 1-10:
 *
 *   b[i] = B[i] + A[i]                      (1)
 *   a[i] = rotl(A[i^8], 7) ^ b[i]           (2,3,4)
 *   c[i] = b[i^2] + a[i]                    (5,6)
 *   A[i] = rotl(a[i^4], 11) ^ c[i]          (7,8,9)
 *   B[i] = c[i^1]                           (10)
 */
inline void
roundScalar(std::array<u32, 32> &x)
{
    u32 a[16], b[16], c[16];
    for (int i = 0; i < 16; ++i)
        b[i] = x[16 + i] + x[i];
    for (int i = 0; i < 16; ++i)
        a[i] = rotl32(x[i ^ 8], 7) ^ b[i];
    for (int i = 0; i < 16; ++i)
        c[i] = b[i ^ 2] + a[i];
    for (int i = 0; i < 16; ++i)
        x[i] = rotl32(a[i ^ 4], 11) ^ c[i];
    for (int i = 0; i < 16; ++i)
        x[16 + i] = c[i ^ 1];
}

#if REV_CUBEHASH_SIMD

#define REV_CH_ROT7_128(v)                                                   \
    _mm_or_si128(_mm_slli_epi32((v), 7), _mm_srli_epi32((v), 25))
#define REV_CH_ROT11_128(v)                                                  \
    _mm_or_si128(_mm_slli_epi32((v), 11), _mm_srli_epi32((v), 21))

/**
 * n rounds on a single state, SSE2. The 32 words live in eight 4-word
 * vectors A0..A3 (x[0..15]) and B0..B3 (x[16..31]); for element i of
 * vector j (state index 4j+i):
 *
 *   i^8 — flips bit 3 of the state index: vector renaming j <-> j^2.
 *   i^4 — flips bit 2: vector renaming j <-> j^1.
 *   i^2 — flips bit 1: in-vector shuffle (1,0,3,2) = 0x4E.
 *   i^1 — flips bit 0: in-vector shuffle (2,3,0,1) = 0xB1.
 */
inline void
permuteSse2(std::array<u32, 32> &x, unsigned n)
{
    __m128i *p = reinterpret_cast<__m128i *>(x.data());
    __m128i A0 = _mm_loadu_si128(p + 0), A1 = _mm_loadu_si128(p + 1);
    __m128i A2 = _mm_loadu_si128(p + 2), A3 = _mm_loadu_si128(p + 3);
    __m128i B0 = _mm_loadu_si128(p + 4), B1 = _mm_loadu_si128(p + 5);
    __m128i B2 = _mm_loadu_si128(p + 6), B3 = _mm_loadu_si128(p + 7);
    for (unsigned k = 0; k < n; ++k) {
        const __m128i b0 = _mm_add_epi32(B0, A0);
        const __m128i b1 = _mm_add_epi32(B1, A1);
        const __m128i b2 = _mm_add_epi32(B2, A2);
        const __m128i b3 = _mm_add_epi32(B3, A3);
        const __m128i a0 = _mm_xor_si128(REV_CH_ROT7_128(A2), b0);
        const __m128i a1 = _mm_xor_si128(REV_CH_ROT7_128(A3), b1);
        const __m128i a2 = _mm_xor_si128(REV_CH_ROT7_128(A0), b2);
        const __m128i a3 = _mm_xor_si128(REV_CH_ROT7_128(A1), b3);
        const __m128i c0 = _mm_add_epi32(_mm_shuffle_epi32(b0, 0x4E), a0);
        const __m128i c1 = _mm_add_epi32(_mm_shuffle_epi32(b1, 0x4E), a1);
        const __m128i c2 = _mm_add_epi32(_mm_shuffle_epi32(b2, 0x4E), a2);
        const __m128i c3 = _mm_add_epi32(_mm_shuffle_epi32(b3, 0x4E), a3);
        A0 = _mm_xor_si128(REV_CH_ROT11_128(a1), c0);
        A1 = _mm_xor_si128(REV_CH_ROT11_128(a0), c1);
        A2 = _mm_xor_si128(REV_CH_ROT11_128(a3), c2);
        A3 = _mm_xor_si128(REV_CH_ROT11_128(a2), c3);
        B0 = _mm_shuffle_epi32(c0, 0xB1);
        B1 = _mm_shuffle_epi32(c1, 0xB1);
        B2 = _mm_shuffle_epi32(c2, 0xB1);
        B3 = _mm_shuffle_epi32(c3, 0xB1);
    }
    _mm_storeu_si128(p + 0, A0);
    _mm_storeu_si128(p + 1, A1);
    _mm_storeu_si128(p + 2, A2);
    _mm_storeu_si128(p + 3, A3);
    _mm_storeu_si128(p + 4, B0);
    _mm_storeu_si128(p + 5, B1);
    _mm_storeu_si128(p + 6, B2);
    _mm_storeu_si128(p + 7, B3);
}

#endif // REV_CUBEHASH_SIMD

#if REV_CUBEHASH_DISPATCH

/** Whether the running CPU can execute the AVX2 kernel. */
inline bool
cpuHasAvx2()
{
    static const bool has = __builtin_cpu_supports("avx2") != 0;
    return has;
}

#define REV_CH_ROT7_256(v)                                                   \
    _mm256_or_si256(_mm256_slli_epi32((v), 7), _mm256_srli_epi32((v), 25))
#define REV_CH_ROT11_256(v)                                                  \
    _mm256_or_si256(_mm256_slli_epi32((v), 11), _mm256_srli_epi32((v), 21))

/**
 * n rounds on a single state, AVX2: four 8-word vectors A01/A23/B01/B23.
 * i^8 is still a register renaming, i^2 and i^1 stay per-128-bit-lane
 * shuffles, and i^4 becomes a 128-bit half swap (permute4x64 0x4E).
 */
REV_CH_TARGET_AVX2 inline void
permuteAvx2(std::array<u32, 32> &x, unsigned n)
{
    __m256i *p = reinterpret_cast<__m256i *>(x.data());
    __m256i A01 = _mm256_loadu_si256(p + 0);
    __m256i A23 = _mm256_loadu_si256(p + 1);
    __m256i B01 = _mm256_loadu_si256(p + 2);
    __m256i B23 = _mm256_loadu_si256(p + 3);
    for (unsigned k = 0; k < n; ++k) {
        const __m256i b01 = _mm256_add_epi32(B01, A01);
        const __m256i b23 = _mm256_add_epi32(B23, A23);
        const __m256i a01 = _mm256_xor_si256(REV_CH_ROT7_256(A23), b01);
        const __m256i a23 = _mm256_xor_si256(REV_CH_ROT7_256(A01), b23);
        const __m256i c01 =
            _mm256_add_epi32(_mm256_shuffle_epi32(b01, 0x4E), a01);
        const __m256i c23 =
            _mm256_add_epi32(_mm256_shuffle_epi32(b23, 0x4E), a23);
        A01 = _mm256_xor_si256(
            REV_CH_ROT11_256(_mm256_permute4x64_epi64(a01, 0x4E)), c01);
        A23 = _mm256_xor_si256(
            REV_CH_ROT11_256(_mm256_permute4x64_epi64(a23, 0x4E)), c23);
        B01 = _mm256_shuffle_epi32(c01, 0xB1);
        B23 = _mm256_shuffle_epi32(c23, 0xB1);
    }
    _mm256_storeu_si256(p + 0, A01);
    _mm256_storeu_si256(p + 1, A23);
    _mm256_storeu_si256(p + 2, B01);
    _mm256_storeu_si256(p + 3, B23);
}

/** Whether the running CPU can execute the AVX-512F batch kernel. */
inline bool
cpuHasAvx512f()
{
    static const bool has = __builtin_cpu_supports("avx512f") != 0;
    return has;
}

// vprold with an all-ones zeroing mask: the same instruction as
// _mm512_rol_epi32, without GCC 12's -Wmaybe-uninitialized false
// positive on that intrinsic's undefined pass-through operand.
#define REV_CH_ROL512(v, k) _mm512_maskz_rol_epi32(0xFFFF, (v), (k))

/** Lanes of the batch kernel: one zmm register holds one state word. */
inline constexpr unsigned kBatchLanes = 16;

/**
 * One step of the 16-lane batch hasher on the 64-byte aligned state
 * @p s, where s[16*j + lane] is word j of that lane. In this order it
 *   - resets the lanes in @p reset to the post-initialization state @p iv,
 *   - xors message words msg[16*j + lane] (j = 0..7, one 32-byte block)
 *     into words 0..7 of the lanes in @p absorb,
 *   - xors 1 into word 31 of the lanes in @p fin (start of finalization),
 * then runs @p rounds rounds on all sixteen lanes. The 32 rows stay in
 * the 32 zmm registers for the whole step, every xor-permuted index is a
 * register renaming, and each rotate is a single vprold. The unroll
 * pragmas let GCC replace the register arrays by scalars; without them
 * it keeps the state in memory and the step runs ~40 % slower.
 */
REV_CH_TARGET_AVX512 inline void
stepX16Avx512(u32 *s, const u32 *msg, u16 absorb, u16 fin,
              u16 reset, const u32 *iv, unsigned rounds)
{
    __m512i x[32];
#pragma GCC unroll 32
    for (int j = 0; j < 32; ++j)
        x[j] = _mm512_load_si512(s + 16 * j);
    if (reset) {
#pragma GCC unroll 32
        for (int j = 0; j < 32; ++j)
            x[j] = _mm512_mask_mov_epi32(
                x[j], reset, _mm512_set1_epi32(static_cast<int>(iv[j])));
    }
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j)
        x[j] = _mm512_mask_xor_epi32(x[j], absorb, x[j],
                                     _mm512_load_si512(msg + 16 * j));
    x[31] = _mm512_mask_xor_epi32(x[31], fin, x[31], _mm512_set1_epi32(1));
    for (unsigned k = 0; k < rounds; ++k) {
        __m512i a[16], b[16], c[16];
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i)
            b[i] = _mm512_add_epi32(x[16 + i], x[i]);
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i)
            a[i] = _mm512_xor_si512(REV_CH_ROL512(x[i ^ 8], 7), b[i]);
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i)
            c[i] = _mm512_add_epi32(b[i ^ 2], a[i]);
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i)
            x[i] = _mm512_xor_si512(REV_CH_ROL512(a[i ^ 4], 11), c[i]);
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i)
            x[16 + i] = c[i ^ 1];
    }
#pragma GCC unroll 32
    for (int j = 0; j < 32; ++j)
        _mm512_store_si512(s + 16 * j, x[j]);
}

#endif // REV_CUBEHASH_DISPATCH

/** n rounds on a single state with the fastest kernel the running CPU
 *  supports (AVX2 is selected at run time, not configure time). */
inline void
permuteActive(std::array<u32, 32> &x, unsigned n)
{
#if REV_CUBEHASH_DISPATCH
    if (cpuHasAvx2())
        return permuteAvx2(x, n);
#endif
#if REV_CUBEHASH_SIMD
    permuteSse2(x, n);
#else
    for (unsigned i = 0; i < n; ++i)
        roundScalar(x);
#endif
}

} // namespace rev::crypto::detail

#endif // REV_CRYPTO_CUBEHASH_ROUND_HPP
