#ifndef RSAFE_MEM_ANON_MAPPING_H_
#define RSAFE_MEM_ANON_MAPPING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/**
 * @file
 * Lazily zero-filled byte storage for guest RAM and disk.
 *
 * A private anonymous mapping reads as zero from the start, and the
 * kernel backs a page with a frame only on its first write; until then
 * reads share the kernel's zero page. So building a VM costs nothing per
 * untouched page, and a VM's resident set is the pages it wrote — where
 * a zero-filled std::vector would pay for writing (and keeping) every
 * byte of a 48 MiB machine up front.
 */

namespace rsafe::mem {

/** RAII owner of one private anonymous mapping, zero until written. */
class AnonMapping {
  public:
    /**
     * Map @p size bytes (> 0), all reading as zero.
     * @throws std::bad_alloc when the mapping cannot be made.
     */
    explicit AnonMapping(std::size_t size);
    ~AnonMapping();

    AnonMapping(const AnonMapping&) = delete;
    AnonMapping& operator=(const AnonMapping&) = delete;

    std::uint8_t* data() { return data_; }
    const std::uint8_t* data() const { return data_; }
    std::size_t size() const { return size_; }
    std::uint8_t& operator[](std::size_t i) { return data_[i]; }
    std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  private:
    std::uint8_t* data_;
    std::size_t size_;
};

/**
 * FNV-1a 64 over all of @p bytes, taken as units of @p unit_bytes whose
 * last-written epochs are @p unit_epoch. A unit whose epoch is still 0
 * was never written, so it is all zero and is not read: FNV-1a folds a
 * zero byte in as one multiply by the prime, so the whole unit is one
 * multiply by prime^unit_bytes. Equal to hashing every byte in order.
 */
std::uint64_t fnv1a64_written(const AnonMapping& bytes,
                              std::size_t unit_bytes,
                              const std::vector<std::uint64_t>& unit_epoch);

}  // namespace rsafe::mem

#endif  // RSAFE_MEM_ANON_MAPPING_H_
