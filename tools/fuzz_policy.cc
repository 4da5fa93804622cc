#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "analysis/policy.h"

/**
 * @file
 * Fuzz target: static CFI policy deserialization
 * (PayloadKind::kPolicyTable).
 *
 * A policy table is shipped to every replayer that enforces it, so its
 * decoder faces bytes from outside the trust boundary. Arbitrary input —
 * truncations, bit-flips, lying site or target counts, non-boolean
 * flags, unsorted sets, inverted regions, trailing garbage — must land
 * in the Status taxonomy, never crash or allocate from an unchecked
 * count. An accepted policy must reach a canonical fixed point:
 * re-serializing it yields bytes that decode to an equal policy and
 * re-serialize identically.
 */

using rsafe::analysis::StaticPolicy;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    const std::vector<std::uint8_t> bytes(data, data + size);

    StaticPolicy first;
    const rsafe::Status status = StaticPolicy::deserialize(bytes, &first);
    (void)status.to_string();
    if (!status.ok())
        return 0;

    const std::vector<std::uint8_t> canonical = first.serialize();
    StaticPolicy second;
    if (!StaticPolicy::deserialize(canonical, &second).ok())
        std::abort();
    if (!(second == first))
        std::abort();
    if (second.serialize() != canonical)
        std::abort();
    return 0;
}
