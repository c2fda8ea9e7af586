/**
 * @file
 * CubeHash implementation (Bernstein's SHA-3 round-2 candidate).
 *
 * The paper's crypto hash generator (CHG) is a pipelined 5-round CubeHash
 * unit with a 16-cycle latency (Sec. VI). We implement the real algorithm,
 * parameterized as CubeHash<r,b,h>: r rounds per b-byte block, h-bit digest.
 * REV uses the low 4 bytes of the digest as a basic-block signature
 * (Sec. V.C).
 */

#ifndef REV_CRYPTO_CUBEHASH_HPP
#define REV_CRYPTO_CUBEHASH_HPP

#include <array>
#include <cstddef>

#include "common/types.hpp"

namespace rev::crypto
{

/** A CubeHash digest (up to 256 bits, the default size). */
using Digest = std::array<u8, 32>;

/**
 * Name of the single-state permutation kernel on the running CPU:
 * "avx2", "sse2", or "scalar" (always when built with
 * -DREV_DISABLE_SIMD_HASH). All kernels are bit-identical.
 */
const char *cubehashImpl();

/**
 * Incremental CubeHash hasher.
 *
 * Parameters follow the CubeHashr/b-h naming: @p rounds rounds are applied
 * after absorbing each @p blockBytes sized message block, with 10*rounds
 * initialization and finalization rounds, producing a @p digestBits digest.
 */
class CubeHash
{
  public:
    /**
     * @param rounds      Rounds per message block (paper uses 5).
     * @param block_bytes Message block size in bytes (1..128).
     * @param digest_bits Digest size in bits (8..256, multiple of 8).
     */
    explicit CubeHash(unsigned rounds = 5, unsigned block_bytes = 32,
                      unsigned digest_bits = 256);

    /** Reset to the initial (post-IV) state. */
    void reset();

    /** Absorb @p len bytes of message. */
    void update(const u8 *data, std::size_t len);

    /**
     * Finalize and return the digest. The hasher must be reset() before
     * reuse.
     */
    Digest finalize();

    /** One-shot convenience hash. */
    static Digest hash(const u8 *data, std::size_t len, unsigned rounds = 5);

    /** Truncated 32-bit signature (low 4 bytes of digest), per Sec. V.C. */
    static u32 signature32(const Digest &d);

    /** Post-initialization state for these (r, b, h) parameters. */
    const std::array<u32, 32> &iv() const { return iv_; }

  private:
    /** Absorb the staged block and permute. */
    void absorbBlock();

    unsigned rounds_;
    unsigned blockBytes_;
    unsigned digestBits_;

    std::array<u32, 32> state_;
    std::array<u32, 32> iv_; ///< cached post-initialization state
    std::array<u8, 128> buffer_;
    unsigned bufFill_ = 0;
};

/** One message for cubehashBatch (borrowed bytes). */
struct HashMsg
{
    const u8 *data = nullptr;
    std::size_t len = 0;
};

/**
 * Hash @p n independent messages with CubeHash<@p rounds, 32, 256>:
 * out[i] receives msgs[i]'s digest, bit-identical to
 * CubeHash::hash(msgs[i].data, msgs[i].len, rounds).
 *
 * On an AVX-512F host, a batch of eight or more messages runs sixteen
 * states per round; a lane that finishes its message takes the next
 * one, so ragged lengths keep every lane busy. Smaller batches, other
 * hosts and -DREV_DISABLE_SIMD_HASH builds hash one message at a time
 * with the single-state kernel.
 */
void cubehashBatch(const HashMsg *msgs, std::size_t n, unsigned rounds,
                   Digest *out);

/**
 * Name of the kernel cubehashBatch runs for a full batch: "avx512x16",
 * or cubehashImpl() when it falls back to one state at a time.
 */
const char *cubehashBatchImpl();

/** States one round of that kernel advances: 16 or 1. */
unsigned cubehashBatchLanes();

} // namespace rev::crypto

#endif // REV_CRYPTO_CUBEHASH_HPP
