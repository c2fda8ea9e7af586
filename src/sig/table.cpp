#include "sig/table.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <utility>

#include "common/logging.hpp"
#include "crypto/cubehash.hpp"
#include "program/program.hpp"

namespace rev::sig
{

using prog::BasicBlock;
using prog::TermKind;

namespace
{

/** Record kinds (low two bits of byte 0). */
constexpr u8 kRecPrimary = 1;
constexpr u8 kRecCont = 2;

/** Base against which target/predecessor slots are encoded. */
constexpr Addr kSlotBase = prog::kDefaultCodeBase;

void
put24(u8 *p, u32 v)
{
    REV_ASSERT(v < (1u << 24), "value does not fit in 24 bits: ", v);
    p[0] = static_cast<u8>(v);
    p[1] = static_cast<u8>(v >> 8);
    p[2] = static_cast<u8>(v >> 16);
}

u32
get24(const u8 *p)
{
    return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16);
}

void
put32(u8 *p, u32 v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<u8>(v >> (8 * i));
}

u32
get32(const u8 *p)
{
    u32 v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/** Encode an absolute target/predecessor address as a 24-bit slot. */
u32
slotEncode(Addr addr)
{
    REV_ASSERT(addr >= kSlotBase, "slot address below code base");
    const u64 off = addr - kSlotBase + 1;
    REV_ASSERT(off < (1u << 24), "slot address out of 24-bit range");
    return static_cast<u32>(off);
}

Addr
slotDecode(u32 slot)
{
    return kSlotBase + slot - 1;
}

/**
 * One validation unit before packing. Target/predecessor sets are views
 * into the CFG's edge arrays (never copied — buildTable is on the sweep's
 * proto-build critical path); CFI-only entries carry their single target
 * inline instead.
 */
struct Logical
{
    u32 termOff;
    u32 startOff;
    TermKind kind;
    u32 hash;
    Addr cfiTarget;                   ///< CfiOnly: the one target
    std::span<const Addr> targets;    ///< empty = none
    std::span<const Addr> preds;      ///< empty = none
};

/** Slots available per continuation record. */
unsigned
contSlots(ValidationMode mode)
{
    return mode == ValidationMode::Aggressive ? 4 : 2;
}

/** Byte offsets of continuation slots. */
const unsigned *
contSlotOffsets(ValidationMode mode)
{
    static const unsigned full_off[] = {1, 4};
    static const unsigned agg_off[] = {1, 4, 11, 14};
    return mode == ValidationMode::Aggressive ? agg_off : full_off;
}

/** Position of the "next" field within a record (all modes). */
constexpr unsigned kNextFieldOffset = 8;

/** Targets stored in @p e's primary record (Aggressive keeps two). */
std::size_t
inlineTargets(ValidationMode mode, const Logical &e)
{
    if (mode != ValidationMode::Aggressive)
        return 0;
    return std::min<std::size_t>(2, e.targets.size());
}

/**
 * Entries whose hash equals another entry's (Sec. V.B note): sorts the
 * hashes with an 8-bit LSD radix sort in reused per-thread buffers and
 * counts equal neighbours.
 */
u64
countHashDuplicates(const std::vector<Logical> &entries)
{
    thread_local std::vector<u32> keys, tmp;
    const std::size_t n = entries.size();
    keys.resize(n);
    tmp.resize(n);
    std::array<std::array<u32, 256>, 4> count{};
    for (std::size_t i = 0; i < n; ++i) {
        const u32 h = entries[i].hash;
        keys[i] = h;
        for (unsigned d = 0; d < 4; ++d)
            ++count[d][(h >> (8 * d)) & 0xff];
    }
    for (unsigned d = 0; d < 4; ++d) {
        u32 pos = 0;
        for (u32 &c : count[d])
            pos += std::exchange(c, pos);
        for (const u32 h : keys)
            tmp[count[d][(h >> (8 * d)) & 0xff]++] = h;
        keys.swap(tmp);
    }
    u64 dups = 0;
    for (std::size_t i = 1; i < n; ++i)
        dups += keys[i] == keys[i - 1];
    return dups;
}

} // namespace

unsigned
recordSize(ValidationMode mode)
{
    switch (mode) {
      case ValidationMode::Full:
        return 11;
      case ValidationMode::Aggressive:
        return 17;
      case ValidationMode::CfiOnly:
        return 12;
    }
    panic("bad mode");
}

u32
bbHashBytes(const u8 *code, std::size_t len, Addr start, Addr term,
            unsigned hash_rounds)
{
    crypto::CubeHash h(hash_rounds);
    h.update(code, len);
    u8 bind[16];
    for (int i = 0; i < 8; ++i) {
        bind[i] = static_cast<u8>(start >> (8 * i));
        bind[8 + i] = static_cast<u8>(term >> (8 * i));
    }
    h.update(bind, sizeof(bind));
    return crypto::CubeHash::signature32(h.finalize());
}

void
bbHashBatch(const BbHashJob *jobs, std::size_t n, unsigned hash_rounds,
            u32 *out)
{
    // Each message is code || 16-byte (start, term) binding, the bytes
    // bbHashBytes absorbs. Messages are staged a fixed-size chunk at a
    // time in reused per-thread scratch, never a whole module at once.
    constexpr std::size_t kChunk = 512;
    thread_local std::vector<u8> scratch;
    thread_local std::vector<crypto::HashMsg> msgs(kChunk);
    thread_local std::vector<crypto::Digest> digests(kChunk);
    for (std::size_t first = 0; first < n; first += kChunk) {
        const std::size_t m = std::min(kChunk, n - first);
        const BbHashJob *chunk = jobs + first;
        std::size_t bytes = 0;
        for (std::size_t i = 0; i < m; ++i)
            bytes += chunk[i].len + 16;
        scratch.resize(bytes);
        u8 *p = scratch.data();
        for (std::size_t i = 0; i < m; ++i) {
            const BbHashJob &job = chunk[i];
            msgs[i] = {p, job.len + 16};
            p = std::copy_n(job.code, job.len, p);
            for (int b = 0; b < 8; ++b) {
                p[b] = static_cast<u8>(job.start >> (8 * b));
                p[8 + b] = static_cast<u8>(job.term >> (8 * b));
            }
            p += 16;
        }
        crypto::cubehashBatch(msgs.data(), m, hash_rounds, digests.data());
        for (std::size_t i = 0; i < m; ++i)
            out[first + i] = crypto::CubeHash::signature32(digests[i]);
    }
}

u32
bbHash(const prog::Module &mod, const prog::BasicBlock &bb,
       unsigned hash_rounds)
{
    REV_ASSERT(bb.start >= mod.base && bb.end <= mod.codeEnd(),
               "bbHash: block outside module code");
    return bbHashBytes(mod.image.data() + (bb.start - mod.base),
                       bb.sizeBytes(), bb.start, bb.term, hash_rounds);
}

std::vector<u32>
bbHashModule(const prog::Module &mod, const prog::Cfg &cfg,
             unsigned hash_rounds)
{
    std::vector<BbHashJob> jobs;
    jobs.reserve(cfg.blocks().size());
    for (const auto &bb : cfg.blocks()) {
        REV_ASSERT(bb.start >= mod.base && bb.end <= mod.codeEnd(),
                   "bbHashModule: block outside module code");
        jobs.push_back({mod.image.data() + (bb.start - mod.base),
                        bb.sizeBytes(), bb.start, bb.term});
    }
    std::vector<u32> hashes(jobs.size());
    bbHashBatch(jobs.data(), jobs.size(), hash_rounds, hashes.data());
    return hashes;
}

BuiltTable
buildTable(const prog::Module &mod, const prog::Cfg &cfg,
           ValidationMode mode, const crypto::KeyVault &vault,
           const crypto::AesKey &module_key, u64 nonce,
           unsigned hash_rounds, const std::vector<u32> *block_hashes)
{
    REV_ASSERT(!block_hashes ||
                   block_hashes->size() == cfg.blocks().size(),
               "buildTable: block-hash vector does not match the CFG");
    const unsigned rs = recordSize(mode);

    // ---- collect logical entries -----------------------------------------
    std::vector<Logical> entries;
    entries.reserve(cfg.blocks().size());
    if (mode == ValidationMode::CfiOnly) {
        // One (site, target) record per legitimate transfer of computed
        // sites and returns; code hashes are not validated (Sec. V.D).
        // The first block at each terminator stands for the site.
        for (const auto &bb : cfg.blocks()) {
            if (cfg.blocksAtTerm(bb.term)[0] != bb.id)
                continue;
            if (!termIsComputed(bb.kind) && bb.kind != TermKind::Return)
                continue;
            for (Addr t : cfg.succs(bb)) {
                Logical e{};
                e.termOff = static_cast<u32>(bb.term - mod.base);
                e.kind = bb.kind;
                e.cfiTarget = t;
                entries.push_back(e);
            }
        }
    } else {
        std::vector<u32> own_hashes;
        if (!block_hashes) {
            own_hashes = bbHashModule(mod, cfg, hash_rounds);
            block_hashes = &own_hashes;
        }
        for (std::size_t i = 0; i < cfg.blocks().size(); ++i) {
            const auto &bb = cfg.blocks()[i];
            Logical e{};
            e.termOff = static_cast<u32>(bb.term - mod.base);
            e.startOff = static_cast<u32>(bb.start - mod.base);
            e.kind = bb.kind;
            e.hash = (*block_hashes)[i];
            if (mode == ValidationMode::Aggressive) {
                // Verify every branch target explicitly (returns are
                // still validated via predecessors, Sec. V.A).
                if (bb.kind != TermKind::Return)
                    e.targets = cfg.succs(bb);
            } else if (termIsComputed(bb.kind)) {
                e.targets = cfg.succs(bb);
            }
            e.preds = cfg.retPreds(bb);
            entries.push_back(e);
        }
    }

    // ---- bucketize --------------------------------------------------------
    u64 buckets_wanted = std::max<u64>(1, (entries.size() * 17) / 20);
    if (buckets_wanted % 2 == 0)
        ++buckets_wanted; // odd modulus spreads sequential offsets
    const u32 P = static_cast<u32>(buckets_wanted);

    // Stable counting sort into one flat array (entry order within a
    // bucket is part of the table layout).
    std::vector<u32> bucket_begin(P + 1, 0);
    for (const auto &e : entries)
        ++bucket_begin[e.termOff % P + 1];
    for (u32 b = 0; b < P; ++b)
        bucket_begin[b + 1] += bucket_begin[b];
    std::vector<const Logical *> bucketed(entries.size());
    {
        std::vector<u32> cursor(bucket_begin.begin(), bucket_begin.end() - 1);
        for (const auto &e : entries)
            bucketed[cursor[e.termOff % P]++] = &e;
    }

    // ---- size the table ----------------------------------------------------
    // Record index i (1-based) lives at byte (i-1)*rs; indices 1..P are the
    // bucket slots themselves; overflow records follow. A bucket's first
    // entry sits directly in its slot, so the common SC miss costs one
    // memory access. Every other entry takes one overflow record, and each
    // entry's spilled targets and predecessors fill ceil(n / per)
    // continuation records.
    const unsigned per = contSlots(mode);
    const unsigned *slot_off = contSlotOffsets(mode);
    u64 num_cont = 0, max_chain = 0, chained = 0;
    for (const auto &e : entries) {
        const u64 spill = e.targets.size() - inlineTargets(mode, e) +
                          e.preds.size();
        num_cont += (spill + per - 1) / per;
    }
    for (u32 b = 0; b < P; ++b) {
        const u64 len = bucket_begin[b + 1] - bucket_begin[b];
        max_chain = std::max(max_chain, len);
        chained += len > 0 ? len - 1 : 0;
    }
    const u64 num_records = P + chained + num_cont;

    BuiltTable out;
    out.bytes.assign(kHeaderBytes + num_records * rs, 0);
    u8 *const records = out.bytes.data() + kHeaderBytes;

    // ---- emit records ------------------------------------------------------
    u64 next_free = P; // 0-based index of the next unused overflow record
    auto link = [&](u64 from, u64 to) {
        put24(records + from * rs + kNextFieldOffset,
              static_cast<u32>(to) + 1);
    };
    for (u32 b = 0; b < P; ++b) {
        u64 prev = 0; // record whose "next" field the following one fills
        for (u32 bi = bucket_begin[b]; bi < bucket_begin[b + 1]; ++bi) {
            const Logical *e = bucketed[bi];
            const u64 idx = bi == bucket_begin[b] ? b : next_free++;
            if (idx != b)
                link(prev, idx);
            prev = idx;

            u8 *rec = records + idx * rs;
            rec[0] = static_cast<u8>(kRecPrimary |
                                     (static_cast<u8>(e->kind) << 2));
            put24(rec + 1, e->termOff);
            if (mode == ValidationMode::CfiOnly) {
                put24(rec + 4, slotEncode(e->cfiTarget));
                continue;
            }
            put32(rec + 4, e->hash);

            const std::span<const Addr> targets = e->targets;
            const std::span<const Addr> preds = e->preds;
            std::size_t t = inlineTargets(mode, *e), p = 0;
            if (t > 0)
                put24(rec + 11, slotEncode(targets[0]));
            if (t > 1)
                put24(rec + 14, slotEncode(targets[1]));

            // Continuation (spill) records, chained behind the primary:
            // extra targets first, then predecessors.
            while (t < targets.size() || p < preds.size()) {
                const u64 cont_idx = next_free++;
                link(prev, cont_idx);
                prev = cont_idx;
                u8 *cont = records + cont_idx * rs;
                const unsigned nt = static_cast<unsigned>(
                    std::min<std::size_t>(per, targets.size() - t));
                const unsigned np = static_cast<unsigned>(
                    std::min<std::size_t>(per - nt, preds.size() - p));
                if (mode == ValidationMode::Aggressive)
                    cont[0] =
                        static_cast<u8>(kRecCont | (nt << 2) | (np << 5));
                else
                    cont[0] =
                        static_cast<u8>(kRecCont | (nt << 2) | (np << 4));
                for (unsigned s = 0; s < nt; ++s)
                    put24(cont + slot_off[s], slotEncode(targets[t + s]));
                for (unsigned s = 0; s < np; ++s)
                    put24(cont + slot_off[nt + s], slotEncode(preds[p + s]));
                t += nt;
                p += np;
            }
        }
    }
    REV_ASSERT(next_free == num_records, "buildTable: record count mismatch");

    // ---- encrypt and fill the header ---------------------------------------
    crypto::Aes128(module_key).ctrCrypt(records, num_records * rs, nonce);

    u8 *hdr = out.bytes.data();
    std::memcpy(hdr, "RSIG", 4);
    hdr[4] = static_cast<u8>(mode);
    hdr[5] = static_cast<u8>(hash_rounds);
    hdr[6] = static_cast<u8>(rs);
    hdr[7] = static_cast<u8>(rs >> 8);
    put32(hdr + 8, P);
    put32(hdr + 12, static_cast<u32>(num_records));
    for (int i = 0; i < 8; ++i)
        hdr[16 + i] = static_cast<u8>(nonce >> (8 * i));
    const crypto::WrappedKey wrapped = vault.wrap(module_key);
    std::memcpy(hdr + 24, wrapped.data(), wrapped.size());
    put32(hdr + 56, static_cast<u32>(out.bytes.size()));

    out.stats.logicalEntries = entries.size();
    out.stats.primaryRecords = entries.size();
    out.stats.contRecords = num_cont;
    out.stats.numBuckets = P;
    out.stats.sizeBytes = out.bytes.size();
    out.stats.maxChainLength = max_chain;
    out.stats.hashDuplicates =
        mode == ValidationMode::CfiOnly ? 0 : countHashDuplicates(entries);
    return out;
}

// ---------------------------------------------------------------------------
// TableReader
// ---------------------------------------------------------------------------

TableReader::TableReader(const SparseMemory &mem, Addr table_base,
                         const crypto::KeyVault &vault)
    : mem_(mem), base_(table_base)
{
    u8 hdr[kHeaderBytes];
    mem_.readBytes(base_, hdr, sizeof(hdr));
    if (std::memcmp(hdr, "RSIG", 4) != 0)
        return;
    if (hdr[4] > static_cast<u8>(ValidationMode::CfiOnly))
        return;
    mode_ = static_cast<ValidationMode>(hdr[4]);
    hashRounds_ = hdr[5];
    numBuckets_ = get32(hdr + 8);
    numRecords_ = get32(hdr + 12);
    nonce_ = 0;
    for (int i = 7; i >= 0; --i)
        nonce_ = (nonce_ << 8) | hdr[16 + i];

    crypto::WrappedKey wrapped;
    std::memcpy(wrapped.data(), hdr + 24, wrapped.size());
    const auto key = vault.unwrap(wrapped);
    if (!key || numBuckets_ == 0)
        return;
    cipher_.emplace(*key);
    valid_ = true;
}

void
TableReader::readDec(u64 off, u8 *out, std::size_t len) const
{
    mem_.readBytes(base_ + off, out, len);
    cipher_->ctrCryptAt(out, len, nonce_, off - kHeaderBytes);
}

LookupResult
TableReader::lookup(Addr term, u32 hash, Addr module_base,
                    const WalkNeeds *needs) const
{
    LookupResult res;
    REV_ASSERT(valid_, "lookup on invalid table");
    REV_ASSERT(mode_ != ValidationMode::CfiOnly,
               "use lookupSite for CFI-only tables");

    const unsigned rs = recordSize(mode_);
    const u32 term_off = static_cast<u32>(term - module_base);

    auto satisfied = [&]() {
        if (!needs)
            return false;
        const bool t_ok =
            !needs->target ||
            std::find(res.targets.begin(), res.targets.end(),
                      *needs->target) != res.targets.end();
        const bool p_ok =
            !needs->pred ||
            std::find(res.retPreds.begin(), res.retPreds.end(),
                      *needs->pred) != res.retPreds.end();
        return t_ok && p_ok;
    };

    u32 idx = static_cast<u32>(term_off % numBuckets_) + 1;
    u64 steps = 0;
    while (idx != 0 && idx <= numRecords_ && steps++ <= numRecords_) {
        const u64 off = kHeaderBytes + u64{idx - 1} * rs;
        res.memAddrs.push_back(base_ + off);
        u8 rec[24];
        readDec(off, rec, rs);

        const u8 kind = rec[0] & 3;
        if (kind == 0)
            break; // empty bucket slot: no entry for this block
        if (kind == kRecCont) {
            // Another entry's spill record in the chain: skip over it.
            idx = get24(rec + kNextFieldOffset);
            continue;
        }

        if (get24(rec + 1) == term_off) {
            // Sec. V.B: the generated hash is the discriminator among
            // validation units sharing a terminator.
            res.termSeen = true;
            if (get32(rec + 4) == hash) {
                res.found = true;
                res.termKind = static_cast<TermKind>((rec[0] >> 2) & 7);
                res.hash = hash;
                if (mode_ == ValidationMode::Aggressive) {
                    if (const u32 s0 = get24(rec + 11))
                        res.targets.push_back(slotDecode(s0));
                    if (const u32 s1 = get24(rec + 14))
                        res.targets.push_back(slotDecode(s1));
                }
                // Walk this entry's spill records (until satisfied).
                // Corrupt chains are bounded: a tampered "next" pointer
                // must not be able to hang the walker (fail-closed).
                u32 cont_idx = get24(rec + kNextFieldOffset);
                u64 cont_steps = 0;
                while (!satisfied() && cont_idx != 0 &&
                       cont_idx <= numRecords_ &&
                       cont_steps++ <= numRecords_) {
                    const u64 coff = kHeaderBytes + u64{cont_idx - 1} * rs;
                    res.memAddrs.push_back(base_ + coff);
                    u8 cont[24];
                    readDec(coff, cont, rs);
                    if ((cont[0] & 3) != kRecCont)
                        break; // next entry in the bucket chain
                    unsigned nt, np;
                    if (mode_ == ValidationMode::Aggressive) {
                        nt = (cont[0] >> 2) & 7;
                        np = (cont[0] >> 5) & 7;
                    } else {
                        nt = (cont[0] >> 2) & 3;
                        np = (cont[0] >> 4) & 3;
                    }
                    const unsigned *slot_off = contSlotOffsets(mode_);
                    // A tampered count byte can decode more slots than
                    // the record carries; the builder never emits more
                    // than contSlots(), so the clamp is a no-op for
                    // intact tables and bounds the walk for corrupt ones.
                    const unsigned max_slots = contSlots(mode_);
                    if (nt > max_slots)
                        nt = max_slots;
                    if (np > max_slots - nt)
                        np = max_slots - nt;
                    for (unsigned sidx = 0; sidx < nt + np; ++sidx) {
                        const Addr a =
                            slotDecode(get24(cont + slot_off[sidx]));
                        if (sidx < nt)
                            res.targets.push_back(a);
                        else
                            res.retPreds.push_back(a);
                    }
                    cont_idx = get24(cont + kNextFieldOffset);
                }
                return res;
            }
        }
        idx = get24(rec + kNextFieldOffset);
    }
    return res;
}

LookupResult
TableReader::lookupSite(Addr term, Addr module_base,
                        const WalkNeeds *needs) const
{
    LookupResult res;
    REV_ASSERT(valid_, "lookupSite on invalid table");
    REV_ASSERT(mode_ == ValidationMode::CfiOnly,
               "lookupSite only for CFI-only tables");

    const unsigned rs = recordSize(mode_);
    const u32 term_off = static_cast<u32>(term - module_base);

    u32 idx = static_cast<u32>(term_off % numBuckets_) + 1;
    u64 steps = 0;
    while (idx != 0 && idx <= numRecords_ && steps++ <= numRecords_) {
        const u64 off = kHeaderBytes + u64{idx - 1} * rs;
        res.memAddrs.push_back(base_ + off);
        u8 rec[12];
        readDec(off, rec, rs);
        const u8 kind = rec[0] & 3;
        if (kind == 0)
            break;
        if (kind == kRecPrimary && get24(rec + 1) == term_off) {
            res.found = true;
            res.termKind = static_cast<TermKind>((rec[0] >> 2) & 7);
            res.targets.push_back(slotDecode(get24(rec + 4)));
            if (needs && needs->target &&
                std::find(res.targets.begin(), res.targets.end(),
                          *needs->target) != res.targets.end()) {
                return res;
            }
        }
        idx = get24(rec + kNextFieldOffset);
    }
    return res;
}

} // namespace rev::sig
