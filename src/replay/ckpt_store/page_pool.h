#ifndef RSAFE_REPLAY_CKPT_STORE_PAGE_POOL_H_
#define RSAFE_REPLAY_CKPT_STORE_PAGE_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "common/types.h"

/**
 * @file
 * Content-hash page dedup pool for checkpoint storage, and the
 * copy-on-write page table that checkpoints hold its pages in.
 *
 * The checkpoint page table (StoredPageTable) shares *unmodified* pages
 * between consecutive checkpoints by reference; the pool extends that
 * to pages with *equal content* anywhere in the chain. A freshly dirtied page that reverted to an
 * earlier value, or the thousands of identical zero pages in the initial
 * full checkpoint, intern to one StoredPage shared by every checkpoint
 * that holds it — so successive checkpoints own only their genuinely new
 * bytes (Section 4.6.1's recycling made byte-accurate).
 *
 * Pages are keyed by the FNV-1a 64 of their raw content and a hit is
 * confirmed with a full byte compare, so a hash collision can never
 * silently alias two different pages. Stored pages are RLE-compressed
 * (compress.h) unless that would grow them — or unless compression is
 * disabled, the RSAFE_NO_CKPT_COMPRESS A/B lever.
 *
 * A page that memory reports pristine (never written, so all zero) goes
 * to intern_zero() instead, which hands back the pool's shared zero page
 * without reading or hashing anything — the initial full checkpoint of
 * a fresh VM is almost all such pages. Stored pages remember whether
 * they are all zero (is_zero()), which lets restore skip writing a zero
 * page over a pristine one.
 *
 * Thread contract: intern() and intern_zero() are called from one
 * thread (the CR); the returned refs may be dropped from any thread (AR
 * workers, fleet jobs), so the live-byte accounting rides in atomics
 * updated by the pages' deleters.
 */

namespace rsafe::replay::ckpt {

/** How a StoredPage keeps its bytes. */
enum class PageEncoding : std::uint8_t {
    kRaw = 0,  ///< kPageSize verbatim bytes
    kRle = 1,  ///< rle_compress() stream decoding to kPageSize bytes
};

/** One immutable, deduplicated, possibly-compressed page or disk block. */
class StoredPage {
  public:
    /**
     * @param encoding  how @p bytes are encoded (kRle streams must decode
     *                  to exactly kPageSize bytes — the constructors'
     *                  callers validate this).
     * @param is_zero   whether the raw content is all zero bytes.
     */
    StoredPage(PageEncoding encoding, std::vector<std::uint8_t> bytes,
               bool is_zero);

    /** Decode the page into @p out (exactly kPageSize bytes). */
    void copy_to(std::uint8_t* out) const;

    /** @return true if the raw content equals @p data (kPageSize bytes). */
    bool content_equals(const std::uint8_t* data) const;

    PageEncoding encoding() const { return encoding_; }
    const std::vector<std::uint8_t>& encoded() const { return bytes_; }
    std::size_t stored_bytes() const { return bytes_.size(); }
    /** @return true if the raw content is kPageSize zero bytes. */
    bool is_zero() const { return is_zero_; }

  private:
    PageEncoding encoding_;
    std::vector<std::uint8_t> bytes_;
    bool is_zero_;
};

/** @return true if the kPageSize bytes at @p data are all zero. */
bool page_is_zero(const std::uint8_t* data);

/** Shared reference to an immutable stored page. */
using StoredPageRef = std::shared_ptr<const StoredPage>;

/**
 * A persistent (copy-on-write) map from page/block number to the stored
 * page holding its contents.
 *
 * Copying a whole array per checkpoint would make an incremental
 * checkpoint cost O(all pages) even when only a handful are dirty
 * (Section 4.6.1 wants the opposite). The refs live instead in
 * fixed-size chunks that consecutive checkpoints share: copying a table
 * copies only the chunk-pointer vector, and set() clones just the one
 * chunk it lands in when that chunk is still shared (path copying). An
 * incremental checkpoint therefore costs O(chunks + dirty pages) pointer
 * work.
 */
class StoredPageTable {
  public:
    /** An empty table (size 0). */
    StoredPageTable() = default;

    /** A table of @p size null refs. */
    explicit StoredPageTable(std::size_t size);

    /** @return number of slots. */
    std::size_t size() const { return size_; }

    /** @return the ref at @p index (null if never set). */
    const StoredPageRef& at(std::uint64_t index) const
    {
        if (index >= size_)
            panic("StoredPageTable::at out of range");
        return chunks_[index >> kChunkShift]->refs[index & (kChunkSize - 1)];
    }

    /**
     * Replace the ref at @p index. If the containing chunk is shared
     * with another table (an older/newer checkpoint), only that chunk is
     * cloned; the rest of the table stays shared.
     */
    void set(std::uint64_t index, StoredPageRef ref);

  private:
    static constexpr std::size_t kChunkShift = 6;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

    struct Chunk {
        std::array<StoredPageRef, kChunkSize> refs;
    };

    std::vector<std::shared_ptr<Chunk>> chunks_;
    std::size_t size_ = 0;
};

/** PagePool configuration. */
struct PagePoolOptions {
    /** Share equal-content pages (off = every intern stores a copy). */
    bool dedup = true;
    /** RLE-compress stored pages (off = raw; the A/B lever). */
    bool compress = true;
};

/** Byte-accurate accounting of one pool (read any time). */
struct PagePoolStats {
    /**
     * intern() and intern_zero() calls — what a raw page-copy store would
     * have copied.
     */
    std::uint64_t pages_interned = 0;
    /** Interns satisfied by an existing equal-content page. */
    std::uint64_t dedup_hits = 0;
    /** pages_interned * kPageSize: the raw cost basis. */
    std::uint64_t bytes_raw = 0;
    /** Cumulative encoded bytes of the unique pages actually stored. */
    std::uint64_t bytes_stored = 0;
    /** Unique stored pages that won from compression. */
    std::uint64_t compressed_pages = 0;
    /** Encoded bytes of stored pages still referenced somewhere. */
    std::uint64_t live_bytes = 0;
    /** Stored pages still referenced somewhere. */
    std::uint64_t live_pages = 0;
};

/** Content-hash dedup + compression front-end for checkpoint pages. */
class PagePool {
  public:
    explicit PagePool(const PagePoolOptions& options = {});

    /**
     * Store the kPageSize bytes at @p data, returning the pooled page:
     * an existing StoredPage with equal content when dedup finds one,
     * a freshly encoded page otherwise.
     */
    StoredPageRef intern(const std::uint8_t* data);

    /**
     * intern() of an all-zero page, without reading one: with dedup on,
     * a hit on the live zero page costs no hashing at all. Accounting
     * (pages_interned, dedup_hits, bytes_stored, ...) is exactly what
     * intern() of zero bytes would record.
     */
    StoredPageRef intern_zero();

    PagePoolStats stats() const;

  private:
    /** Live accounting shared with page deleters (outlives the pool). */
    struct Live {
        std::atomic<std::uint64_t> bytes{0};
        std::atomic<std::uint64_t> pages{0};
    };

    PagePoolOptions options_;
    std::shared_ptr<Live> live_;
    /** hash -> pages with that content hash (collision bucket). */
    std::unordered_map<std::uint64_t,
                       std::vector<std::weak_ptr<const StoredPage>>>
        index_;
    /** The live zero page interned through this pool, if any. */
    std::weak_ptr<const StoredPage> zero_;
    PagePoolStats totals_;
};

}  // namespace rsafe::replay::ckpt

#endif  // RSAFE_REPLAY_CKPT_STORE_PAGE_POOL_H_
