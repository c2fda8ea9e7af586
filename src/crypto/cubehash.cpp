#include "crypto/cubehash.hpp"

#include <bit>
#include <cstring>
#include <vector>

#include "common/logging.hpp"
#include "crypto/cubehash_round.hpp"

namespace rev::crypto
{

namespace
{

/** Batches smaller than this hash one message at a time: a 16-lane
 *  round costs about as much as five single-state rounds. */
constexpr std::size_t kBatchMinMessages = 8;

#if REV_CUBEHASH_DISPATCH

/**
 * The 16-lane batch scheduler. Every step runs one absorb's worth of
 * rounds on all lanes. A message taken at step t absorbs its full
 * 32-byte blocks and then its padded tail in steps t .. e-1, xors the
 * finalization 1 in at step e and finishes after step e+9; each lane
 * keeps those two deadlines, so one vector compare per step finds the
 * lanes that absorb, start finalizing or finish. A finished lane hands
 * out its digest and is reset to the IV with the next message's first
 * block in the following step.
 */
REV_CH_TARGET_AVX512 void
hashBatchX16(const HashMsg *msgs, std::size_t n, unsigned rounds,
             const std::array<u32, 32> &iv, Digest *out)
{
    constexpr unsigned kLanes = detail::kBatchLanes;
    constexpr u32 kFinalSteps = 10;
    alignas(64) u32 absorbEnd[kLanes] = {}; ///< step e: the final xor
    alignas(64) u32 doneAt[kLanes] = {};    ///< step after the last one
    const u8 *next[kLanes] = {};            ///< next full block
    std::size_t msgOf[kLanes] = {};         ///< index into msgs / out
    std::array<u8, 32> tail[kLanes] = {};   ///< tail, 0x80, zero fill
    alignas(64) u32 s[32 * kLanes] = {};
    alignas(64) u32 block[8 * kLanes] = {};

    u32 step = 0;
    std::size_t next_msg = 0;
    unsigned live = 0;                   // lanes with a message
    unsigned reset = (1u << kLanes) - 1; // lanes to load the IV into
    auto take = [&](unsigned l) {
        if (next_msg == n) {
            live &= ~(1u << l);
            return;
        }
        const HashMsg &m = msgs[next_msg];
        const std::size_t full = m.len / 32, rest = m.len % 32;
        absorbEnd[l] = step + static_cast<u32>(full) + 1;
        doneAt[l] = absorbEnd[l] + kFinalSteps;
        next[l] = m.data;
        msgOf[l] = next_msg++;
        tail[l].fill(0);
        if (rest)
            std::memcpy(tail[l].data(), m.data + 32 * full, rest);
        tail[l][rest] = 0x80;
        live |= 1u << l;
        reset |= 1u << l;
    };
    for (unsigned l = 0; l < kLanes; ++l)
        take(l);

    while (live) {
        const __m512i now = _mm512_set1_epi32(static_cast<int>(step));
        const __m512i ends = _mm512_load_si512(absorbEnd);
        const unsigned absorb = _mm512_cmplt_epu32_mask(now, ends) & live;
        const unsigned fin = _mm512_cmpeq_epi32_mask(now, ends) & live;
        for (unsigned m = absorb; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(std::countr_zero(m));
            const u8 *src = tail[l].data();
            if (step + 1 < absorbEnd[l]) {
                src = next[l];
                next[l] += 32;
            }
            for (unsigned j = 0; j < 8; ++j)
                std::memcpy(&block[kLanes * j + l], src + 4 * j, 4);
        }
        detail::stepX16Avx512(s, block, static_cast<u16>(absorb),
                              static_cast<u16>(fin), static_cast<u16>(reset),
                              iv.data(), rounds);
        reset = 0;
        ++step;
        const unsigned done =
            _mm512_cmpeq_epi32_mask(_mm512_set1_epi32(static_cast<int>(step)),
                                    _mm512_load_si512(doneAt)) &
            live;
        for (unsigned m = done; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(std::countr_zero(m));
            u8 *d = out[msgOf[l]].data();
            for (unsigned j = 0; j < 8; ++j)
                std::memcpy(d + 4 * j, &s[kLanes * j + l], 4);
            take(l);
        }
    }
}

#endif // REV_CUBEHASH_DISPATCH

bool
batchUsesX16()
{
#if REV_CUBEHASH_DISPATCH
    return detail::cpuHasAvx512f();
#else
    return false;
#endif
}

} // namespace

const char *
cubehashImpl()
{
#if REV_CUBEHASH_DISPATCH
    if (detail::cpuHasAvx2())
        return "avx2";
#endif
    return REV_CUBEHASH_SIMD ? "sse2" : "scalar";
}

const char *
cubehashBatchImpl()
{
    return batchUsesX16() ? "avx512x16" : cubehashImpl();
}

unsigned
cubehashBatchLanes()
{
    return batchUsesX16() ? 16 : 1;
}

void
cubehashBatch(const HashMsg *msgs, std::size_t n, unsigned rounds,
              Digest *out)
{
    CubeHash h(rounds);
#if REV_CUBEHASH_DISPATCH
    if (n >= kBatchMinMessages && batchUsesX16()) {
        hashBatchX16(msgs, n, rounds, h.iv(), out);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i) {
        h.reset();
        h.update(msgs[i].data, msgs[i].len);
        out[i] = h.finalize();
    }
}

CubeHash::CubeHash(unsigned rounds, unsigned block_bytes,
                   unsigned digest_bits)
    : rounds_(rounds), blockBytes_(block_bytes), digestBits_(digest_bits)
{
    if (rounds_ == 0)
        fatal("CubeHash: rounds must be nonzero");
    if (blockBytes_ == 0 || blockBytes_ > 128)
        fatal("CubeHash: block size must be in 1..128 bytes");
    if (digestBits_ < 8 || digestBits_ > 256 || digestBits_ % 8 != 0)
        fatal("CubeHash: digest size must be 8..256 bits, multiple of 8");

    // Initialize: state = (h/8, b, r, 0, ...), then 10*r rounds. The IV
    // depends only on the (r, b, h) parameters, so it is memoized
    // per-thread: short-message callers (the per-basic-block signature
    // hash) would otherwise spend more rounds deriving the IV than
    // absorbing their data.
    struct IvEntry
    {
        unsigned r, b, h;
        std::array<u32, 32> iv;
    };
    thread_local std::vector<IvEntry> memo;
    for (const auto &e : memo) {
        if (e.r == rounds_ && e.b == blockBytes_ && e.h == digestBits_) {
            iv_ = e.iv;
            state_ = iv_;
            return;
        }
    }
    state_.fill(0);
    state_[0] = digestBits_ / 8;
    state_[1] = blockBytes_;
    state_[2] = rounds_;
    detail::permuteActive(state_, 10 * rounds_);
    iv_ = state_;
    memo.push_back({rounds_, blockBytes_, digestBits_, iv_});
}

void
CubeHash::reset()
{
    state_ = iv_;
    bufFill_ = 0;
}

void
CubeHash::absorbBlock()
{
    // Little-endian words; a partial last word is zero-extended.
    for (unsigned i = 0; i < blockBytes_; i += 4) {
        const u8 *b = buffer_.data() + i;
        const unsigned n = std::min(4u, blockBytes_ - i);
        u32 w = 0;
        for (unsigned k = 0; k < n; ++k)
            w |= static_cast<u32>(b[k]) << (8 * k);
        state_[i / 4] ^= w;
    }
    detail::permuteActive(state_, rounds_);
    bufFill_ = 0;
}

void
CubeHash::update(const u8 *data, std::size_t len)
{
    while (len > 0) {
        const std::size_t take =
            std::min<std::size_t>(len, blockBytes_ - bufFill_);
        std::memcpy(buffer_.data() + bufFill_, data, take);
        bufFill_ += static_cast<unsigned>(take);
        data += take;
        len -= take;
        if (bufFill_ == blockBytes_)
            absorbBlock();
    }
}

Digest
CubeHash::finalize()
{
    // Pad: append 0x80 then zero-fill the block, absorb it.
    buffer_[bufFill_++] = 0x80;
    while (bufFill_ < blockBytes_)
        buffer_[bufFill_++] = 0;
    absorbBlock();

    // Finalize: xor 1 into the last state word, 10*r rounds.
    state_[31] ^= 1;
    detail::permuteActive(state_, 10 * rounds_);

    Digest out{};
    const unsigned bytes = digestBits_ / 8;
    for (unsigned i = 0; i < bytes; ++i)
        out[i] = static_cast<u8>(state_[i / 4] >> (8 * (i % 4)));
    return out;
}

Digest
CubeHash::hash(const u8 *data, std::size_t len, unsigned rounds)
{
    CubeHash h(rounds);
    h.update(data, len);
    return h.finalize();
}

u32
CubeHash::signature32(const Digest &d)
{
    return static_cast<u32>(d[0]) | (static_cast<u32>(d[1]) << 8) |
           (static_cast<u32>(d[2]) << 16) | (static_cast<u32>(d[3]) << 24);
}

} // namespace rev::crypto
