#ifndef RSAFE_REPLAY_CKPT_STORE_CKPT_IMAGE_H_
#define RSAFE_REPLAY_CKPT_STORE_CKPT_IMAGE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

/**
 * @file
 * Complete checkpoint serialization (PayloadKind::kCheckpointImage).
 *
 * The shippable-checkpoint primitive: a Checkpoint serialized here and
 * deserialized in another process restores the same machine — an
 * AlarmReplayer boots from it plus a log slice and produces verdicts,
 * state digests, and counters bit-identical to the in-memory path. That
 * is what turns the fleet's alarm jobs into jobs a *remote* AR tier can
 * execute.
 *
 * Image layout (on the hardened wire envelope of rnr/wire.h):
 *
 *   frame 0   machine state: id/icount/cycles/log_pos/copies, the CPU
 *             (registers, pc, sp, mode, flags, pending irq), the block
 *             device (including an in-flight DMA write payload), the
 *             live RAS + BackRAS, thread context, the page/block
 *             geometry, and the unique-page count U;
 *   frame 1   the slot map: one u32 per page then per block naming the
 *             unique page holding that slot's content (0xffffffff for a
 *             null slot) — this is the dedup structure on the wire:
 *             shared content is stored once and referenced many times;
 *   frame 2+i unique page i: a PageEncoding byte, then the raw or RLE
 *             bytes (RLE streams must decode to exactly kPageSize).
 *
 * A Checkpoint holds nothing tied to the process or VM it was taken in,
 * so the image carries every field, and restore_checkpoint() treats a
 * deserialized checkpoint exactly like an in-memory one.
 *
 * deserialize_checkpoint() is strict and abort-free: truncation,
 * bit-flips, lying counts or lengths, out-of-range slot references, and
 * malformed RLE all land in the Status taxonomy (fuzzed by
 * tools/fuzz_ckpt_image.cc). Serialization is canonical — unique pages
 * appear in first-use order — so serialize(deserialize(serialize(x)))
 * == serialize(x).
 */

namespace rsafe::replay {

struct Checkpoint;

namespace ckpt {

/** Slot-map entry marking a null (never-captured) slot. */
inline constexpr std::uint32_t kNullSlot = 0xffffffffu;

/** Cap on num_pages + num_blocks: rejects lying geometries before any
 *  allocation sized by them (a 4M-slot map is a 16 MiB frame, inside the
 *  wire format's 64 MiB frame bound). */
inline constexpr std::uint64_t kMaxImageSlots = 1ull << 22;

/** Cap on RAS entries (live or per thread) and on tracked threads. */
inline constexpr std::uint64_t kMaxImageRasEntries = 1ull << 20;

/** Encode @p checkpoint as a kCheckpointImage wire image. */
std::vector<std::uint8_t> serialize_checkpoint(const Checkpoint& checkpoint);

/**
 * Strict parse of @p bytes into @p out. On success @p out is a complete
 * checkpoint; on failure @p out is unspecified and the Status says where
 * decoding stopped.
 */
Status deserialize_checkpoint(const std::vector<std::uint8_t>& bytes,
                              Checkpoint* out);

}  // namespace ckpt
}  // namespace rsafe::replay

#endif  // RSAFE_REPLAY_CKPT_STORE_CKPT_IMAGE_H_
