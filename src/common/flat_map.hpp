/**
 * @file
 * Open-addressed hash map over trivially copyable keys and values.
 *
 * One contiguous slot array (linear probing, power-of-two capacity, at
 * most half full) instead of a heap node per entry, so copying the map is
 * one vector copy. Snapshot capture and fork copy the simulator's memo
 * tables (the CHG digest memo, the Fig. 9 branch set, the TLB index)
 * thousands of times per campaign; node-based containers made each copy
 * an allocation per entry. Erase uses backward-shift deletion, so no
 * tombstones accumulate. Iteration is not offered: callers need only
 * find / insert / erase / size, whose results do not depend on the slot
 * layout.
 */

#ifndef REV_COMMON_FLAT_MAP_HPP
#define REV_COMMON_FLAT_MAP_HPP

#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace rev
{

/** Well-mixed 64-bit hash of an integer key (MurmurHash3's finalizer). */
struct FlatHash
{
    u64
    operator()(u64 x) const
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        x ^= x >> 33;
        return x;
    }
};

/** Value type of a FlatMap used as a set. */
struct FlatUnit
{
};

template <typename K, typename V, typename Hash = FlatHash>
class FlatMap
{
    static_assert(std::is_trivially_copyable_v<K> &&
                      std::is_trivially_copyable_v<V>,
                  "FlatMap copies its slots as plain bytes");

  public:
    /** The value stored under @p key, or nullptr. */
    V *
    find(const K &key)
    {
        const std::size_t i = locate(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    const V *
    find(const K &key) const
    {
        const std::size_t i = locate(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    bool contains(const K &key) const { return locate(key) != kNone; }

    /** The value under @p key, value-initialized when absent. */
    V &
    operator[](const K &key)
    {
        return slots_[claim(key)].value;
    }

    /** Add @p key (set use); true when it was absent. */
    bool
    insert(const K &key)
    {
        const std::size_t before = size_;
        claim(key);
        return size_ != before;
    }

    /** Remove @p key; false when it was absent. */
    bool
    erase(const K &key)
    {
        std::size_t i = locate(key);
        if (i == kNone)
            return false;
        // Backward shift: pull each following entry of the probe run
        // into the hole unless the hole lies before its home slot.
        for (std::size_t j = (i + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            const std::size_t home = Hash{}(slots_[j].key) & mask_;
            if (((j - home) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i].used = false;
        --size_;
        return true;
    }

    void
    clear()
    {
        slots_.clear();
        mask_ = 0;
        size_ = 0;
    }

    std::size_t size() const { return size_; }

  private:
    struct Slot
    {
        K key;
        V value;
        bool used;
    };

    static constexpr std::size_t kNone = ~std::size_t{0};
    static constexpr std::size_t kMinSlots = 16;

    std::size_t
    locate(const K &key) const
    {
        if (slots_.empty())
            return kNone;
        for (std::size_t i = Hash{}(key) & mask_; slots_[i].used;
             i = (i + 1) & mask_)
            if (slots_[i].key == key)
                return i;
        return kNone;
    }

    /** Slot index holding @p key, inserting it (value-initialized) when
     *  absent. */
    std::size_t
    claim(const K &key)
    {
        if (const std::size_t found = locate(key); found != kNone)
            return found;
        if ((size_ + 1) * 2 > slots_.size())
            rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
        std::size_t i = Hash{}(key) & mask_;
        while (slots_[i].used)
            i = (i + 1) & mask_;
        slots_[i] = Slot{key, V{}, true};
        ++size_;
        return i;
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old(capacity, Slot{K{}, V{}, false});
        old.swap(slots_);
        mask_ = capacity - 1;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = Hash{}(s.key) & mask_;
            while (slots_[i].used)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

/** A FlatMap used as a set. */
template <typename K, typename Hash = FlatHash>
using FlatSet = FlatMap<K, FlatUnit, Hash>;

} // namespace rev

#endif // REV_COMMON_FLAT_MAP_HPP
