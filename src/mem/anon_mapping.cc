#include "mem/anon_mapping.h"

#include <sys/mman.h>

#include <new>

namespace rsafe::mem {

AnonMapping::AnonMapping(std::size_t size) : data_(nullptr), size_(size)
{
    void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<std::uint8_t*>(p);
}

AnonMapping::~AnonMapping()
{
    ::munmap(data_, size_);
}

std::uint64_t
fnv1a64_written(const AnonMapping& bytes, std::size_t unit_bytes,
                const std::vector<std::uint64_t>& unit_epoch)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    std::uint64_t zero_unit = 1;
    for (std::size_t i = 0; i < unit_bytes; ++i)
        zero_unit *= kPrime;

    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t unit = 0; unit < unit_epoch.size(); ++unit) {
        if (unit_epoch[unit] == 0) {
            hash *= zero_unit;
            continue;
        }
        const std::uint8_t* p = bytes.data() + unit * unit_bytes;
        for (std::size_t i = 0; i < unit_bytes; ++i) {
            hash ^= p[i];
            hash *= kPrime;
        }
    }
    return hash;
}

}  // namespace rsafe::mem
