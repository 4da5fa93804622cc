#include "mem/page_store.h"

#include <bit>
#include <cstring>
#include <string>

#include "common/log.h"

namespace rsafe::mem {

namespace {

std::size_t
checked_pages(std::size_t num_pages)
{
    if (num_pages == 0)
        fatal("PageStore: zero pages");
    return num_pages;
}

}  // namespace

PageStore::PageStore(std::size_t num_pages)
    : pages_(checked_pages(num_pages)),
      bytes_(num_pages * kPageSize),
      dirty_bits_((num_pages + 63) / 64, 0),
      written_bits_((num_pages + 63) / 64, 0)
{
}

void
PageStore::check(std::uint64_t page, const char* what) const
{
    if (page >= pages_)
        panic(std::string("PageStore::") + what + " out of range");
}

void
PageStore::read(std::uint64_t page, std::uint8_t* out) const
{
    check(page, "read");
    std::memcpy(out, bytes_.data() + page * kPageSize, kPageSize);
}

void
PageStore::write(std::uint64_t page, const std::uint8_t* data)
{
    check(page, "write");
    std::memcpy(bytes_.data() + page * kPageSize, data, kPageSize);
    mark_dirty(page);
}

const std::uint8_t*
PageStore::data(std::uint64_t page) const
{
    check(page, "data");
    return bytes_.data() + page * kPageSize;
}

std::vector<std::uint64_t>
PageStore::dirty_pages() const
{
    std::vector<std::uint64_t> pages;
    pages.reserve(dirty_count_);
    for (std::size_t w = 0; w < dirty_bits_.size(); ++w) {
        std::uint64_t word = dirty_bits_[w];
        while (word != 0) {
            pages.push_back(w * 64 + std::countr_zero(word));
            word &= word - 1;
        }
    }
    return pages;
}

void
PageStore::clear_dirty()
{
    std::memset(dirty_bits_.data(), 0,
                dirty_bits_.size() * sizeof(std::uint64_t));
    dirty_count_ = 0;
}

std::uint64_t
PageStore::content_hash() const
{
    // FNV-1a folds a zero byte in as one multiply by the prime, so a
    // pristine page is one multiply by prime^kPageSize.
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    std::uint64_t zero_page = 1;
    for (std::size_t i = 0; i < kPageSize; ++i)
        zero_page *= kPrime;

    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t page = 0; page < pages_; ++page) {
        if (pristine(page)) {
            hash *= zero_page;
            continue;
        }
        const std::uint8_t* p = bytes_.data() + page * kPageSize;
        for (std::size_t i = 0; i < kPageSize; ++i) {
            hash ^= p[i];
            hash *= kPrime;
        }
    }
    return hash;
}

}  // namespace rsafe::mem
