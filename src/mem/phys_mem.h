#ifndef RSAFE_MEM_PHYS_MEM_H_
#define RSAFE_MEM_PHYS_MEM_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "isa/program.h"
#include "mem/page_store.h"

/**
 * @file
 * Guest physical memory with page permissions and dirty tracking.
 *
 * The guest runs with a flat physical mapping (no guest paging): the memory
 * system's job here is (a) byte/word storage, (b) the W^X permission policy
 * that motivates code-reuse attacks (Appendix A of the paper), and (c) the
 * per-page dirty tracking that the checkpointing replayer's incremental
 * copy-on-write checkpoints are built from (Section 4.6.1).
 *
 * This is the simulator's hottest data structure, so the bookkeeping is
 * designed for the access pattern of a tight interpreter loop:
 *  - the bytes, dirty bitmap and pristine state live in one PageStore
 *    (the same page array the guest disk is), whose inline mark_dirty()
 *    is all a sub-page store pays for tracking,
 *  - every content-changing operation on an executable page bumps that
 *    page's generation counter, which the CPU's predecoded-instruction
 *    cache validates against on every fetch.
 *
 * Every entry point that can change a byte (write, write_raw,
 * write_block, load_image, restore_page) marks the page in the store,
 * so it stops being pristine for good (PageStore's invariant).
 * Checkpoint take and restore use pages().pristine() to skip pages
 * nobody touched.
 */

namespace rsafe::mem {

/** Per-page permission bits. */
enum PagePerm : std::uint8_t {
    kPermNone = 0,
    kPermRead = 1 << 0,
    kPermWrite = 1 << 1,
    kPermExec = 1 << 2,
    kPermRW = kPermRead | kPermWrite,
    kPermRX = kPermRead | kPermExec,
    kPermRWX = kPermRead | kPermWrite | kPermExec,
};

/** Result of a guest memory access. */
enum class MemResult {
    kOk,
    kOutOfRange,   ///< address beyond configured RAM
    kNoPerm,       ///< permission violation (e.g., store to an X page)
};

/**
 * Observer of code-page modifications.
 *
 * Invoked synchronously whenever a page's generation counter is bumped,
 * i.e., whenever the bytes or fetchability of a page that is (or could
 * become) executable may have changed. The translation-block engine
 * registers one of these to eagerly invalidate and unchain translated
 * blocks (the decode cache instead validates generations lazily on
 * fetch). Callbacks run on the owning VM's execution thread and must not
 * re-enter PhysMem.
 */
class CodeWriteListener {
  public:
    virtual ~CodeWriteListener() = default;
    /** Page @p page's generation was bumped (its code may have changed). */
    virtual void on_code_page_touched(Addr page) = 0;
};

/** Flat guest RAM with page permissions and dirty-page tracking. */
class PhysMem {
  public:
    /** Create @p size bytes of RAM (rounded up to whole pages), all RW. */
    explicit PhysMem(std::size_t size);

    /** @return RAM size in bytes. */
    std::size_t size() const { return store_.num_pages() * kPageSize; }

    /** @return number of RAM pages. */
    std::size_t num_pages() const { return store_.num_pages(); }

    /** The page array: dirty and pristine state, read-only access. */
    const PageStore& pages() const { return store_; }

    /** Set the permissions of every page overlapping [addr, addr+len). */
    void set_perms(Addr addr, std::size_t len, std::uint8_t perms);

    /** @return the permission bits of the page containing @p addr. */
    std::uint8_t perms_at(Addr addr) const;

    /** Guest data read of @p len <= 8 bytes (little-endian). */
    MemResult read(Addr addr, std::size_t len, Word* out) const;

    /** Guest data write of @p len <= 8 bytes; honors W and marks dirty. */
    MemResult write(Addr addr, std::size_t len, Word value);

    /** Instruction fetch: requires X permission on the page. */
    MemResult fetch(Addr addr, std::uint8_t out[kInstrBytes]) const;

    /**
     * Privileged access by the simulator/hypervisor: ignores permissions.
     * Used for image loading, device DMA (which marks pages dirty), VM
     * introspection, and checkpoint restore.
     * @{
     */
    Word read_raw(Addr addr, std::size_t len) const;
    void write_raw(Addr addr, std::size_t len, Word value);
    void write_block(Addr addr, const std::uint8_t* data, std::size_t len);
    void read_block(Addr addr, std::uint8_t* data, std::size_t len) const;
    /** @} */

    /** Load a program image (bytes + permissions applied separately). */
    void load_image(const isa::Image& image);

    /** @return pointer to the raw bytes of page @p page. */
    const std::uint8_t* page_data(Addr page) const
    {
        return store_.data(page);
    }

    /** Overwrite page @p page with @p data (kPageSize bytes); marks dirty. */
    void restore_page(Addr page, const std::uint8_t* data);

    /** Forget dirty state (checkpoint interval boundary). */
    void clear_dirty() { store_.clear_dirty(); }

    /**
     * Decode-cache invalidation hook: a monotonic counter per page,
     * incremented whenever the page's bytes may have changed while it is
     * (or could become) executable — i.e., on set_perms, restore_page,
     * write_block, write_raw, and any guest store landing on an X page.
     * A predecoded copy of the page is valid only while this matches.
     */
    std::uint64_t page_gen(Addr page) const { return gen_[page]; }

    /**
     * Stable pointer to page_gen(page)'s storage (never reallocated for
     * the lifetime of the PhysMem); the CPU's fetch fast path polls it.
     */
    const std::uint64_t* page_gen_ptr(Addr page) const
    {
        return &gen_[page];
    }

    /**
     * Register/unregister a code-write listener (see CodeWriteListener).
     * Multiple listeners may coexist (several CPUs can share one memory);
     * each is notified once per generation bump.
     * @{
     */
    void add_code_listener(CodeWriteListener* listener);
    void remove_code_listener(CodeWriteListener* listener);
    /** @} */

    /**
     * FNV-1a hash over all RAM bytes; the determinism test oracle.
     * Pristine pages are folded in without being read.
     */
    std::uint64_t content_hash() const { return store_.content_hash(); }

  private:
    bool in_range(Addr addr, std::size_t len) const
    {
        return addr + len <= size() && addr + len >= addr;
    }
    /** Mark and code-invalidate every page of [addr, addr+len). */
    void wrote_range(Addr addr, std::size_t len);
    /** Bump @p page's generation and notify code-write listeners. */
    void bump_code_gen(Addr page)
    {
        ++gen_[page];
        if (!code_listeners_.empty()) [[unlikely]] {
            for (CodeWriteListener* listener : code_listeners_)
                listener->on_code_page_touched(page);
        }
    }

    PageStore store_;
    std::vector<std::uint8_t> perms_;
    std::vector<std::uint64_t> gen_;          ///< decode-cache generations
    std::vector<CodeWriteListener*> code_listeners_;
};

}  // namespace rsafe::mem

#endif  // RSAFE_MEM_PHYS_MEM_H_
