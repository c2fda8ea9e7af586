/**
 * @file
 * AES-128 block cipher with CTR-mode helpers.
 *
 * REV stores the per-module reference signature tables in RAM in encrypted
 * form (Sec. IV.A, Sec. IX). The paper notes that AES units already exist
 * on contemporary chips; we implement AES-128 from scratch so that the
 * simulated RAM genuinely holds ciphertext and SC fills genuinely decrypt.
 *
 * CTR mode, which encrypts the tables, runs on the CPU's AES-NI
 * instructions whenever the running CPU has them (chosen at run time,
 * four blocks in flight), as the paper's hardware AES unit would.
 * Elsewhere CTR falls back to the portable 32-bit T-table form, which
 * encryptBlock always uses: each of rounds 1-9 is sixteen lookups into
 * four 256-entry word tables (SubBytes, ShiftRows and MixColumns folded
 * together) XORed with word round keys; the last round uses the S-box.
 * The T-table form models the ciphertext only: table lookups indexed by
 * secret state leak through the data cache, so it is not hardened
 * against timing side channels. AES-NI has no such leak.
 */

#ifndef REV_CRYPTO_AES_HPP
#define REV_CRYPTO_AES_HPP

#include <array>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace rev::crypto
{

/** A 128-bit AES key. */
using AesKey = std::array<u8, 16>;

/** A 128-bit AES block. */
using AesBlock = std::array<u8, 16>;

class Aes128;

/** Name of the CTR kernel on the running CPU: "aesni" or "ttable". */
const char *aesImpl();

namespace detail
{

/** The two CTR keystream kernels. */
enum class CtrKernel
{
    TTable,
    AesNi,
};

/** Whether the running CPU can execute the AES-NI kernel. */
bool aesniSupported();

/**
 * Aes128::ctrCryptAt through a chosen kernel, so tests can hold the two
 * against each other. Asking for AesNi on a CPU without it is fatal.
 */
void ctrCryptAtWith(CtrKernel kernel, const Aes128 &aes, u8 *data,
                    std::size_t len, u64 nonce, u64 byte_offset);

} // namespace detail

/**
 * AES-128 engine. Key schedule is expanded at construction; encryptBlock /
 * decryptBlock operate on single 16-byte blocks, and ctrCrypt provides a
 * stream transform (encrypt == decrypt) used for signature tables.
 */
class Aes128
{
  public:
    explicit Aes128(const AesKey &key);

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(u8 *block) const;

    /** Decrypt one 16-byte block in place. */
    void decryptBlock(u8 *block) const;

    /**
     * CTR-mode transform of @p len bytes (in place). The same call both
     * encrypts and decrypts. @p nonce selects the keystream.
     */
    void ctrCrypt(u8 *data, std::size_t len, u64 nonce) const;

    void
    ctrCrypt(std::vector<u8> &data, u64 nonce) const
    {
        ctrCrypt(data.data(), data.size(), nonce);
    }

    /**
     * CTR-mode transform of a range that begins @p byte_offset bytes into
     * the stream. Allows decrypting an arbitrary slice (e.g., one
     * signature-table record) without processing the prefix.
     */
    void ctrCryptAt(u8 *data, std::size_t len, u64 nonce,
                    u64 byte_offset) const;

  private:
    friend void detail::ctrCryptAtWith(detail::CtrKernel, const Aes128 &,
                                       u8 *, std::size_t, u64, u64);

    /** Round keys: 11 x 4 words, each a big-endian state column. */
    std::array<u32, 44> roundKeys_;
    /** The same round keys as 11 16-byte blocks, the AES-NI layout. */
    std::array<u8, 176> roundKeyBytes_;
};

} // namespace rev::crypto

#endif // REV_CRYPTO_AES_HPP
