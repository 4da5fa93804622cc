#ifndef RSAFE_COMMON_TYPES_H_
#define RSAFE_COMMON_TYPES_H_

#include <cstdint>
#include <cstddef>

/**
 * @file
 * Fundamental scalar types used throughout the RnR-Safe simulator.
 *
 * All guest-visible quantities are 64-bit: the guest ISA is a 64-bit
 * machine, cycle counts are monotonically increasing 64-bit counters, and
 * instruction counts (the unit of deterministic replay positioning) are
 * 64-bit as well.
 */

namespace rsafe {

/** Guest physical/virtual address (the guest runs with a flat mapping). */
using Addr = std::uint64_t;

/** A 64-bit guest machine word. */
using Word = std::uint64_t;

/** Simulated processor cycles. */
using Cycles = std::uint64_t;

/** Count of retired guest instructions; the replay clock. */
using InstrCount = std::uint64_t;

/** Guest thread identifier (matches the guest kernel's task id). */
using ThreadId = std::uint32_t;

/** Virtual-disk block number. */
using BlockNum = std::uint64_t;

/** Size of a guest physical memory page in bytes. */
inline constexpr std::size_t kPageSize = 4096;

/** Size of a virtual-disk block in bytes: one page (mem::PageStore). */
inline constexpr std::size_t kDiskBlockSize = kPageSize;

/** Bytes per encoded guest instruction (fixed-width encoding). */
inline constexpr std::size_t kInstrBytes = 8;

/** Page number containing @p addr. */
constexpr Addr
page_of(Addr addr)
{
    return addr / kPageSize;
}

/** Base address of the page containing @p addr. */
constexpr Addr
page_base(Addr addr)
{
    return addr & ~static_cast<Addr>(kPageSize - 1);
}

/** Byte offset of @p addr within its page. */
constexpr std::size_t
page_offset(Addr addr)
{
    return static_cast<std::size_t>(addr & (kPageSize - 1));
}

}  // namespace rsafe

#endif  // RSAFE_COMMON_TYPES_H_
