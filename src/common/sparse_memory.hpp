/**
 * @file
 * Sparse byte-addressable memory image of the simulated machine.
 *
 * The functional state of the machine lives here (code, data, stack). The
 * timing model (caches, DRAM) tracks tags and latencies only and reads
 * values from this image, mirroring how trace-driven cache models work.
 *
 * The hot paths (instruction fetch, loads/stores, CHG hashing)
 * resolve the page once per span and move whole runs of bytes with
 * memcpy/word operations instead of one lookup per byte; a one-entry
 * write cursor short-circuits the lookup for consecutive writes to the
 * same page. The page table is a flat open-addressed index (page number
 * to slot position) over a deque of slots: the deque never moves a slot,
 * so version pointers handed out in PageViews and the write cursor stay
 * valid however far the table grows. Reads go straight to the page
 * table and write nothing, so
 * any number of threads may read one memory at once (the red-team
 * campaign's workers share its golden image, and the stream verifier's
 * workers share one RefStore's table image). Semantics are unchanged
 * from the byte-at-a-time reference: reads of unwritten locations return
 * zero, writes allocate pages on demand, and multi-byte values are
 * little-endian.
 *
 * Pages are copy-on-write: fork() produces a memory sharing every page
 * with its source, and either side's next write to a shared page clones
 * just that page (O(dirty pages) per fork, not O(footprint)). The page
 * *version counter* lives in the map slot, not the page, so it survives
 * a COW clone: holders of PageView::version pointers (the decode cache)
 * keep revalidating against the same address even after the underlying
 * bytes were replaced by a clone.
 *
 * Every slot's version counter is bumped on each write span. Layers that
 * memoize derived views of memory (the interpreter's predecoded-
 * instruction cache, the CHG digest memo) validate against these counters
 * instead of requiring explicit invalidation hooks, so self-modifying
 * code — whether through the machine's own stores, attack injectors, or
 * reloadProgram() — is picked up automatically. Forked memories copy the
 * version values, so a fork's counters evolve exactly as a cold run's
 * would from the same point — memoized digests stay bit-identical.
 *
 * A page may also carry one PageAnnex: data that is a pure function of
 * the page's bytes (the interpreter's decoded instructions). The annex
 * belongs to the page object, so every memory sharing the page shares
 * it; a write that clones the page starts the clone without one, and an
 * in-place write by the page's only owner drops it.
 */

#ifndef REV_COMMON_SPARSE_MEMORY_HPP
#define REV_COMMON_SPARSE_MEMORY_HPP

#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace rev
{

/**
 * Data derived from one page's bytes and owned by that page object (see
 * SparseMemory::annexOf()). Since a page object's bytes never change
 * while more than one memory shares it, the annex is valid for as long
 * as a holder's page version is unchanged.
 */
class PageAnnex
{
  public:
    PageAnnex() = default;
    PageAnnex(const PageAnnex &) = delete;
    PageAnnex &operator=(const PageAnnex &) = delete;
    virtual ~PageAnnex() = default;
};

/**
 * Page-granular sparse memory. Reads of unwritten locations return zero.
 */
class SparseMemory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr u64 kPageSize = u64{1} << kPageShift;

    SparseMemory() = default;

    // Copying is explicit via fork(). Moves transfer the page
    // set; both operands' write cursors are reset so no cached
    // pointer outlives the slots it refers to, and the epoch is bumped so
    // external caches holding page views revalidate.
    SparseMemory(SparseMemory &&other) noexcept
        : index_(std::move(other.index_)), slots_(std::move(other.slots_)),
          epoch_(other.epoch_ + 1)
    {
        other.clearPages();
        other.resetWriteCursor();
        ++other.epoch_;
    }

    SparseMemory &
    operator=(SparseMemory &&other) noexcept
    {
        if (this != &other) {
            index_ = std::move(other.index_);
            slots_ = std::move(other.slots_);
            other.clearPages();
            resetWriteCursor();
            other.resetWriteCursor();
            ++epoch_;
            ++other.epoch_;
        }
        return *this;
    }

    u8
    read8(Addr addr) const
    {
        const Slot *slot = findSlot(addr >> kPageShift);
        return slot ? slot->page->bytes[addr & (kPageSize - 1)] : 0;
    }

    void
    write8(Addr addr, u8 value)
    {
        Page &page = writablePage(addr >> kPageShift);
        page.bytes[addr & (kPageSize - 1)] = value;
    }

    /** Little-endian read of the low @p size bytes (1..8) at @p addr. */
    u64
    read(Addr addr, unsigned size) const
    {
        const u64 off = addr & (kPageSize - 1);
        if (off + size <= kPageSize) {
            const Slot *slot = findSlot(addr >> kPageShift);
            return slot ? loadLE(slot->page->bytes.data() + off, size) : 0;
        }
        u64 v = 0;
        for (unsigned i = size; i-- > 0;)
            v = (v << 8) | read8(addr + i);
        return v;
    }

    /** Little-endian write of the low @p size bytes (1..8) of @p value. */
    void
    write(Addr addr, u64 value, unsigned size)
    {
        const u64 off = addr & (kPageSize - 1);
        if (off + size <= kPageSize) {
            Page &page = writablePage(addr >> kPageShift);
            storeLE(page.bytes.data() + off, value, size);
            return;
        }
        for (unsigned i = 0; i < size; ++i)
            write8(addr + i, static_cast<u8>(value >> (8 * i)));
    }

    u64 read64(Addr addr) const { return read(addr, 8); }
    void write64(Addr addr, u64 value) { write(addr, value, 8); }

    void
    readBytes(Addr addr, u8 *out, std::size_t len) const
    {
        while (len > 0) {
            const u64 off = addr & (kPageSize - 1);
            const std::size_t chunk =
                static_cast<std::size_t>(std::min<u64>(len, kPageSize - off));
            const Slot *slot = findSlot(addr >> kPageShift);
            if (slot)
                std::memcpy(out, slot->page->bytes.data() + off, chunk);
            else
                std::memset(out, 0, chunk);
            addr += chunk;
            out += chunk;
            len -= chunk;
        }
    }

    void
    writeBytes(Addr addr, const u8 *data, std::size_t len)
    {
        while (len > 0) {
            const u64 off = addr & (kPageSize - 1);
            const std::size_t chunk =
                static_cast<std::size_t>(std::min<u64>(len, kPageSize - off));
            Page &page = writablePage(addr >> kPageShift);
            std::memcpy(page.bytes.data() + off, data, chunk);
            addr += chunk;
            data += chunk;
            len -= chunk;
        }
    }

    void
    writeBytes(Addr addr, const std::vector<u8> &data)
    {
        writeBytes(addr, data.data(), data.size());
    }

    /** Number of populated pages (tests / diagnostics). */
    std::size_t pageCount() const { return slots_.size(); }

    /**
     * Write-version counter of a page (0 when the page is unpopulated).
     * Bumped at least once per write span touching the page, never reset:
     * derived caches compare it to detect content changes.
     */
    u64
    pageVersion(u64 page_no) const
    {
        const Slot *slot = findSlot(page_no);
        return slot ? slot->version : 0;
    }

    /**
     * Sum of page versions over the pages overlapping [start, end).
     * Strictly increases whenever any byte in the span is written, so it
     * serves as a cheap change tag for memoized digests of the span.
     */
    u64
    spanVersionSum(Addr start, Addr end) const
    {
        if (end <= start)
            return 0;
        u64 sum = 0;
        for (u64 p = start >> kPageShift; p <= (end - 1) >> kPageShift; ++p)
            sum += pageVersion(p);
        return sum;
    }

    /**
     * Stable view of a populated page's bytes and version counter, or
     * nulls when unpopulated. The version pointer stays valid until the
     * page table is destroyed (it lives in the table's slot, which
     * neither table growth, copy-on-write nor a move relocates; a move
     * hands the slot to the target); the bytes pointer is only good
     * until the next write to the page — holders must re-fetch the view
     * whenever the version changed, and drop it on an epoch() bump.
     */
    struct PageView
    {
        const u8 *bytes = nullptr;
        const u64 *version = nullptr;
        std::atomic<PageAnnex *> *annex = nullptr; ///< see annexOf()
    };

    PageView
    pageView(u64 page_no) const
    {
        const Slot *slot = findSlot(page_no);
        return slot ? PageView{slot->page->bytes.data(), &slot->version,
                               &slot->page->annex}
                    : PageView{};
    }

    /**
     * The annex of @p view's (populated) page, created as a T on first
     * use; a page carries at most one annex type. Any number of threads
     * may call this for memories sharing the page: the first publisher
     * wins and the others adopt its annex. The reference is good for as
     * long as the page version @p view was taken at is current.
     */
    template <typename T>
    static T &
    annexOf(const PageView &view)
    {
        PageAnnex *a = view.annex->load(std::memory_order_acquire);
        if (!a) {
            auto fresh = std::make_unique<T>();
            if (view.annex->compare_exchange_strong(
                    a, fresh.get(), std::memory_order_acq_rel,
                    std::memory_order_acquire))
                a = fresh.release();
        }
        return static_cast<T &>(*a);
    }

    /**
     * Bumped whenever the page set is replaced wholesale (move in/out,
     * e.g. the page-shadowing rollback). External caches holding PageViews
     * must drop them when the epoch changed.
     */
    u64 epoch() const { return epoch_; }

    /**
     * Copy-on-write fork: the result shares every page with this memory;
     * whichever side writes a shared page first clones just that page.
     * O(populated pages) pointer copies, no byte copying. Version values
     * carry over, so derived-cache revalidation behaves as if the fork
     * had executed the source's whole history itself.
     */
    SparseMemory
    fork() const
    {
        SparseMemory copy;
        copy.index_ = index_;
        copy.slots_ = slots_; // shared_ptr copies: pages now aliased
        return copy;
    }

    /** Visit every populated page as (page_number, bytes), in the order
     *  the pages were first written. */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const Slot &slot : slots_)
            fn(slot.pageNo, slot.page->bytes.data());
    }

  private:
    struct Page
    {
        Page() = default;
        /** A clone copies the bytes and starts without an annex. */
        Page(const Page &other) : bytes(other.bytes) {}
        Page &operator=(const Page &) = delete;
        ~Page() { delete annex.load(std::memory_order_acquire); }

        std::array<u8, kPageSize> bytes;
        mutable std::atomic<PageAnnex *> annex{nullptr};
    };

    /**
     * One page-table entry. The version counter lives here — outside the
     * (possibly shared) page — so PageView::version pointers survive COW
     * clones, and so each fork's counters advance independently.
     */
    struct Slot
    {
        std::shared_ptr<Page> page;
        u64 version = 0;
        u64 pageNo = 0;
    };

    static constexpr u64 kNoPage = ~u64{0};

    static u64
    loadLE(const u8 *p, unsigned size)
    {
        if constexpr (std::endian::native == std::endian::little) {
            if (size == 8) {
                u64 v;
                std::memcpy(&v, p, 8);
                return v;
            }
        }
        u64 v = 0;
        for (unsigned i = size; i-- > 0;)
            v = (v << 8) | p[i];
        return v;
    }

    static void
    storeLE(u8 *p, u64 value, unsigned size)
    {
        if constexpr (std::endian::native == std::endian::little) {
            if (size == 8) {
                std::memcpy(p, &value, 8);
                return;
            }
        }
        for (unsigned i = 0; i < size; ++i)
            p[i] = static_cast<u8>(value >> (8 * i));
    }

    const Slot *
    findSlot(u64 page_no) const
    {
        const u32 *pos = index_.find(page_no);
        return pos ? &slots_[*pos] : nullptr;
    }

    /**
     * Slot for a write span: allocated on demand, version bumped (exactly
     * once per span — every write path funnels through here), and the
     * page un-shared if a fork still references it (the clone has no
     * annex); an only owner writing in place drops the page's annex. The
     * shared-ness check runs on the cached-slot fast path too: a fork()
     * between two writes re-shares the page, and the slot pointer alone
     * cannot see that.
     */
    Page &
    writablePage(u64 page_no)
    {
        Slot *slot;
        if (page_no == writePageNo_) {
            slot = writeSlot_;
        } else {
            if (const u32 *pos = index_.find(page_no)) {
                slot = &slots_[*pos];
            } else {
                index_[page_no] = static_cast<u32>(slots_.size());
                slot = &slots_.emplace_back(
                    Slot{std::make_shared<Page>(), 0, page_no});
                slot->page->bytes.fill(0);
            }
            writePageNo_ = page_no;
            writeSlot_ = slot;
        }
        ++slot->version;
        if (slot->page.use_count() > 1)
            slot->page = std::make_shared<Page>(*slot->page);
        else if (slot->page->annex.load(std::memory_order_relaxed))
            delete slot->page->annex.exchange(nullptr,
                                              std::memory_order_acq_rel);
        return *slot->page;
    }

    void
    clearPages()
    {
        index_.clear();
        slots_.clear();
    }

    void
    resetWriteCursor()
    {
        writePageNo_ = kNoPage;
        writeSlot_ = nullptr;
    }

    FlatMap<u64, u32> index_; ///< page number -> position in slots_
    /** The page table. A deque, because its elements never move: PageView
     *  version pointers and writeSlot_ point into it. */
    std::deque<Slot> slots_;
    u64 writePageNo_ = kNoPage;
    Slot *writeSlot_ = nullptr;
    u64 epoch_ = 0;
};

} // namespace rev

#endif // REV_COMMON_SPARSE_MEMORY_HPP
