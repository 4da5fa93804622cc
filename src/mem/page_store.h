#ifndef RSAFE_MEM_PAGE_STORE_H_
#define RSAFE_MEM_PAGE_STORE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/anon_mapping.h"

/**
 * @file
 * A fixed array of 4 KiB pages with dirty tracking: the one storage
 * model behind guest RAM (PhysMem holds one) and the guest disk (which
 * is one, a disk block being a page).
 *
 * A checkpoint is the pages *and* disk blocks modified since the
 * previous checkpoint (Section 4.6.1, Figure 4), so both kinds of state
 * keep the same bookkeeping: a dirty bitmap with a cached count, which
 * an incremental checkpoint walks and then clears.
 *
 * The bytes live in a lazily zero-filled AnonMapping, so a VM pays in
 * time and resident memory only for the pages it writes. A page that
 * was never written is all zero: it is "pristine". Invariant: every
 * entry point that changes bytes (write(), and the owner's direct
 * stores, which must call mark_dirty()) marks the page written, and a
 * written page never becomes pristine again — not even when it is
 * written back to all-zero. Checkpoint take and restore use pristine()
 * to skip pages nobody touched.
 */

namespace rsafe::mem {

/** Fixed-size dirty-tracked, lazy-zero page array. */
class PageStore {
  public:
    /** Create @p num_pages pages (> 0), all zero and pristine. */
    explicit PageStore(std::size_t num_pages);

    /** @return number of pages. */
    std::size_t num_pages() const { return pages_; }

    /** Copy page @p page (kPageSize bytes) into @p out. */
    void read(std::uint64_t page, std::uint8_t* out) const;

    /** Overwrite page @p page with @p data (kPageSize bytes); marks it. */
    void write(std::uint64_t page, const std::uint8_t* data);

    /** @return pointer to the kPageSize bytes of @p page. */
    const std::uint8_t* data(std::uint64_t page) const;

    /**
     * The whole array, for an owner that stores sub-page values in
     * place (PhysMem's word access). Every such store must be followed
     * by mark_dirty() of each page it touched.
     * @{
     */
    std::uint8_t* bytes() { return bytes_.data(); }
    const std::uint8_t* bytes() const { return bytes_.data(); }
    /** @} */

    /** Record that @p page was written (no range check: hot path). */
    void mark_dirty(std::uint64_t page)
    {
        const std::uint64_t bit = std::uint64_t{1} << (page & 63);
        auto& word = dirty_bits_[page >> 6];
        if ((word & bit) == 0) {
            word |= bit;
            ++dirty_count_;
            written_bits_[page >> 6] |= bit;
        }
    }

    /** @return pages written since the last clear_dirty(), sorted. */
    std::vector<std::uint64_t> dirty_pages() const;

    /** @return number of dirty pages (O(1)). */
    std::size_t dirty_count() const { return dirty_count_; }

    /** Forget dirty state (checkpoint interval boundary). */
    void clear_dirty();

    /** @return true if @p page was never written: it is all zero. */
    bool pristine(std::uint64_t page) const
    {
        return ((written_bits_[page >> 6] >> (page & 63)) & 1) == 0;
    }

    /**
     * FNV-1a 64 over every byte in order; the determinism test oracle.
     * A pristine page is folded in without being read.
     */
    std::uint64_t content_hash() const;

  private:
    void check(std::uint64_t page, const char* what) const;

    std::size_t pages_;
    AnonMapping bytes_;
    std::vector<std::uint64_t> dirty_bits_;    ///< one bit per page
    std::size_t dirty_count_ = 0;
    std::vector<std::uint64_t> written_bits_;  ///< ever written (!pristine)
};

}  // namespace rsafe::mem

#endif  // RSAFE_MEM_PAGE_STORE_H_
