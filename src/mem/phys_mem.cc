#include "mem/phys_mem.h"

#include <bit>
#include <cstring>

#include "common/log.h"

namespace rsafe::mem {

namespace {

/**
 * The interpreter's load/store fast path copies whole little-endian words
 * with memcpy; the byte-loop fallback keeps big-endian hosts correct.
 */
constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

/** Little-endian load of @p len <= 8 bytes at @p p, byte by byte. */
Word
get_le(const std::uint8_t* p, std::size_t len)
{
    Word value = 0;
    for (std::size_t i = 0; i < len; ++i)
        value |= static_cast<Word>(p[i]) << (8 * i);
    return value;
}

/** Little-endian store of the low @p len <= 8 bytes of @p value. */
void
put_le(std::uint8_t* p, std::size_t len, Word value)
{
    for (std::size_t i = 0; i < len; ++i)
        p[i] = static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
}

std::size_t
ram_pages(std::size_t size)
{
    const std::size_t pages = (size + kPageSize - 1) / kPageSize;
    if (pages == 0)
        fatal("PhysMem: zero-sized memory");
    return pages;
}

}  // namespace

PhysMem::PhysMem(std::size_t size)
    : store_(ram_pages(size)),
      perms_(num_pages(), kPermRW),
      gen_(num_pages(), 0)
{
}

void
PhysMem::set_perms(Addr addr, std::size_t len, std::uint8_t perms)
{
    if (!in_range(addr, len))
        fatal("PhysMem::set_perms: range out of bounds");
    const Addr first = page_of(addr);
    const Addr last = page_of(addr + (len == 0 ? 0 : len - 1));
    for (Addr p = first; p <= last; ++p) {
        perms_[p] = perms;
        // Fetchability changed: any predecoded copy of the page is stale.
        bump_code_gen(p);
    }
}

void
PhysMem::add_code_listener(CodeWriteListener* listener)
{
    if (listener == nullptr)
        fatal("PhysMem::add_code_listener: null listener");
    code_listeners_.push_back(listener);
}

void
PhysMem::remove_code_listener(CodeWriteListener* listener)
{
    std::erase(code_listeners_, listener);
}

std::uint8_t
PhysMem::perms_at(Addr addr) const
{
    if (!in_range(addr, 1))
        return kPermNone;
    return perms_[page_of(addr)];
}

MemResult
PhysMem::read(Addr addr, std::size_t len, Word* out) const
{
    if (!in_range(addr, len))
        return MemResult::kOutOfRange;
    const Addr page = page_of(addr);
    // Almost every access fits one page (stack and data are 8-byte
    // aligned); only then can a single perms lookup cover it.
    if (page_offset(addr) + len <= kPageSize) [[likely]] {
        if (!(perms_[page] & kPermRead))
            return MemResult::kNoPerm;
    } else if (!(perms_[page] & kPermRead) ||
               !(perms_[page + 1] & kPermRead)) {
        return MemResult::kNoPerm;
    }
    if (kLittleEndianHost && len == 8) {
        Word value;
        std::memcpy(&value, store_.bytes() + addr, 8);
        *out = value;
    } else if (len == 1) {
        *out = store_.bytes()[addr];
    } else {
        *out = get_le(store_.bytes() + addr, len);
    }
    return MemResult::kOk;
}

MemResult
PhysMem::write(Addr addr, std::size_t len, Word value)
{
    if (!in_range(addr, len))
        return MemResult::kOutOfRange;
    const Addr page = page_of(addr);
    if (page_offset(addr) + len <= kPageSize) [[likely]] {
        const std::uint8_t perms = perms_[page];
        if (!(perms & kPermWrite))
            return MemResult::kNoPerm;
        if (kLittleEndianHost && len == 8) {
            std::memcpy(store_.bytes() + addr, &value, 8);
        } else if (len == 1) {
            store_.bytes()[addr] = static_cast<std::uint8_t>(value & 0xff);
        } else {
            put_le(store_.bytes() + addr, len, value);
        }
        store_.mark_dirty(page);
        if (perms & kPermExec) [[unlikely]]
            bump_code_gen(page);
        return MemResult::kOk;
    }
    // Page-straddling slow path.
    const Addr last = addr + len - 1;
    if (!(perms_[page] & kPermWrite) || !(perms_[page_of(last)] & kPermWrite))
        return MemResult::kNoPerm;
    put_le(store_.bytes() + addr, len, value);
    wrote_range(addr, len);
    return MemResult::kOk;
}

MemResult
PhysMem::fetch(Addr addr, std::uint8_t out[kInstrBytes]) const
{
    if (!in_range(addr, kInstrBytes))
        return MemResult::kOutOfRange;
    if (!(perms_[page_of(addr)] & kPermExec))
        return MemResult::kNoPerm;
    std::memcpy(out, store_.bytes() + addr, kInstrBytes);
    return MemResult::kOk;
}

Word
PhysMem::read_raw(Addr addr, std::size_t len) const
{
    if (!in_range(addr, len))
        panic("PhysMem::read_raw out of range");
    if (kLittleEndianHost && len == 8 && page_offset(addr) + 8 <= kPageSize) {
        Word value;
        std::memcpy(&value, store_.bytes() + addr, 8);
        return value;
    }
    return get_le(store_.bytes() + addr, len);
}

void
PhysMem::write_raw(Addr addr, std::size_t len, Word value)
{
    if (!in_range(addr, len))
        panic("PhysMem::write_raw out of range");
    put_le(store_.bytes() + addr, len, value);
    wrote_range(addr, len);
}

void
PhysMem::write_block(Addr addr, const std::uint8_t* data, std::size_t len)
{
    if (!in_range(addr, len))
        panic("PhysMem::write_block out of range");
    std::memcpy(store_.bytes() + addr, data, len);
    wrote_range(addr, len);
}

void
PhysMem::read_block(Addr addr, std::uint8_t* data, std::size_t len) const
{
    if (!in_range(addr, len))
        panic("PhysMem::read_block out of range");
    std::memcpy(data, store_.bytes() + addr, len);
}

void
PhysMem::load_image(const isa::Image& image)
{
    write_block(image.base(), image.bytes().data(), image.size());
}

void
PhysMem::restore_page(Addr page, const std::uint8_t* data)
{
    store_.write(page, data);
    bump_code_gen(page);
}

void
PhysMem::wrote_range(Addr addr, std::size_t len)
{
    // Straddling and privileged writes can change executable bytes (they
    // bypass W^X: DMA into a code page, introspection pokes), so every
    // page touched is both marked in the store and code-invalidated.
    const Addr first = page_of(addr);
    const Addr last = page_of(addr + (len == 0 ? 0 : len - 1));
    for (Addr p = first; p <= last; ++p) {
        store_.mark_dirty(p);
        bump_code_gen(p);
    }
}

}  // namespace rsafe::mem
