#include "replay/ckpt_store/page_pool.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/log.h"
#include "replay/ckpt_store/compress.h"
#include "rnr/wire.h"

namespace rsafe::replay::ckpt {

namespace wire = rnr::wire;

namespace {

constexpr std::uint8_t kZeroPage[kPageSize] = {};

}  // namespace

bool
page_is_zero(const std::uint8_t* data)
{
    return std::memcmp(data, kZeroPage, kPageSize) == 0;
}

StoredPage::StoredPage(PageEncoding encoding,
                       std::vector<std::uint8_t> bytes, bool is_zero)
    : encoding_(encoding), bytes_(std::move(bytes)), is_zero_(is_zero)
{
}

void
StoredPage::copy_to(std::uint8_t* out) const
{
    if (encoding_ == PageEncoding::kRaw) {
        std::memcpy(out, bytes_.data(), kPageSize);
        return;
    }
    // Streams are validated before a StoredPage is built (by the encoder
    // round-trip invariant or the image decoder), so failure here means
    // internal state corruption, not bad input.
    const Status status =
        rle_decompress(bytes_.data(), bytes_.size(), out, kPageSize);
    if (!status.ok())
        panic("StoredPage: invalid rle stream: " + status.message());
}

bool
StoredPage::content_equals(const std::uint8_t* data) const
{
    if (encoding_ == PageEncoding::kRaw)
        return std::memcmp(bytes_.data(), data, kPageSize) == 0;
    std::uint8_t raw[kPageSize];
    copy_to(raw);
    return std::memcmp(raw, data, kPageSize) == 0;
}

PagePool::PagePool(const PagePoolOptions& options)
    : options_(options), live_(std::make_shared<Live>())
{
}

StoredPageRef
PagePool::intern(const std::uint8_t* data)
{
    ++totals_.pages_interned;
    totals_.bytes_raw += kPageSize;
    const std::uint64_t hash = wire::fnv1a64(data, kPageSize);

    std::vector<std::weak_ptr<const StoredPage>>* bucket = nullptr;
    if (options_.dedup) {
        bucket = &index_[hash];
        // Drop entries whose pages were recycled, and look for a live
        // equal-content page. The byte compare makes a hash collision a
        // miss, never an aliasing bug.
        bucket->erase(std::remove_if(bucket->begin(), bucket->end(),
                                     [](const auto& weak) {
                                         return weak.expired();
                                     }),
                      bucket->end());
        for (const auto& weak : *bucket) {
            const StoredPageRef page = weak.lock();
            if (page && page->content_equals(data)) {
                ++totals_.dedup_hits;
                return page;
            }
        }
    }

    PageEncoding encoding = PageEncoding::kRaw;
    std::vector<std::uint8_t> bytes;
    if (options_.compress) {
        bytes = rle_compress(data, kPageSize);
        if (bytes.size() < kPageSize) {
            encoding = PageEncoding::kRle;
            ++totals_.compressed_pages;
        }
    }
    if (encoding == PageEncoding::kRaw)
        bytes.assign(data, data + kPageSize);

    totals_.bytes_stored += bytes.size();
    live_->bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
    live_->pages.fetch_add(1, std::memory_order_relaxed);
    const auto live = live_;
    StoredPageRef page(
        new StoredPage(encoding, std::move(bytes), page_is_zero(data)),
        [live](const StoredPage* p) {
            live->bytes.fetch_sub(p->stored_bytes(),
                                  std::memory_order_relaxed);
            live->pages.fetch_sub(1, std::memory_order_relaxed);
            delete p;
        });
    if (bucket != nullptr)
        bucket->push_back(page);
    return page;
}

StoredPageRef
PagePool::intern_zero()
{
    if (options_.dedup) {
        // At most one zero page is live in a dedup pool, so while zero_
        // lives it is exactly the page intern() would find.
        if (StoredPageRef page = zero_.lock()) {
            ++totals_.pages_interned;
            totals_.bytes_raw += kPageSize;
            ++totals_.dedup_hits;
            return page;
        }
    }
    StoredPageRef page = intern(kZeroPage);
    zero_ = page;
    return page;
}

PagePoolStats
PagePool::stats() const
{
    PagePoolStats out = totals_;
    out.live_bytes = live_->bytes.load(std::memory_order_relaxed);
    out.live_pages = live_->pages.load(std::memory_order_relaxed);
    return out;
}

}  // namespace rsafe::replay::ckpt
