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

}  // namespace rsafe::mem
