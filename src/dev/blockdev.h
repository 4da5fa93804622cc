#ifndef RSAFE_DEV_BLOCKDEV_H_
#define RSAFE_DEV_BLOCKDEV_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "mem/page_store.h"

/**
 * @file
 * A DMA block-storage controller.
 *
 * The guest programs a transfer through port I/O (block number, guest
 * buffer address, direction, go), the device completes it after a
 * pseudo-random latency, and completion is signalled by an asynchronous
 * interrupt — the paper's canonical asynchronous non-deterministic event
 * (Section 7.3). On a read completion the controller DMAs the block into
 * guest memory; those bytes are "data copied by virtual devices into the
 * guest" and must be logged for replay.
 */

namespace rsafe::dev {

/** One completed DMA transfer awaiting interrupt delivery. */
struct DiskCompletion {
    bool is_read = false;
    BlockNum block = 0;
    Addr guest_addr = 0;
    /** For reads: block contents to DMA into guest memory. */
    std::vector<std::uint8_t> data;
};

/** Checkpointable controller state (in-flight transfer, if any). */
struct BlockDevState {
    bool busy = false;
    bool is_read = false;
    BlockNum block = 0;
    Addr guest_addr = 0;
    std::vector<std::uint8_t> write_payload;
    BlockNum cmd_block = 0;
    Addr cmd_addr = 0;
};

/** DMA block-device controller over a disk (a mem::PageStore). */
class BlockDev {
  public:
    /**
     * @param disk          backing disk (owned by the VM, not the device).
     * @param seed          completion-latency PRNG seed.
     * @param mean_latency  mean cycles from "go" to completion.
     */
    BlockDev(mem::PageStore* disk, std::uint64_t seed, Cycles mean_latency);

    /** Command registers (written via guest pio). @{ */
    void set_block(BlockNum block) { cmd_block_ = block; }
    void set_addr(Addr addr) { cmd_addr_ = addr; }
    BlockNum cmd_block() const { return cmd_block_; }
    Addr cmd_addr() const { return cmd_addr_; }
    /** @} */

    /**
     * Start a transfer at guest cycle @p now.
     * @param is_read        true: disk block -> guest memory.
     * @param write_payload  for writes: the kDiskBlockSize bytes to store
     *                       (captured at submission time).
     */
    void go(Cycles now, bool is_read,
            const std::vector<std::uint8_t>& write_payload = {});

    /** @return 1 if the device is idle and ready for a command. */
    Word status() const { return in_flight_ ? 0 : 1; }

    /** @return the cycle the in-flight transfer completes, or ~0. */
    Cycles next_completion() const;

    /**
     * Consume a completion due at or before @p now.
     * Write transfers are applied to the disk here (completion time).
     */
    std::optional<DiskCompletion> take_completion(Cycles now);

    /** @return total transfers completed. */
    std::uint64_t total_transfers() const { return total_transfers_; }

    /** Snapshot controller state for a checkpoint. */
    BlockDevState export_state() const;

    /** Restore controller state from a checkpoint. */
    void import_state(const BlockDevState& state);

  private:
    struct InFlight {
        bool is_read;
        BlockNum block;
        Addr guest_addr;
        Cycles done_at;
        std::vector<std::uint8_t> write_payload;
    };

    mem::PageStore* disk_;
    Rng rng_;
    Cycles mean_latency_;
    BlockNum cmd_block_ = 0;
    Addr cmd_addr_ = 0;
    std::optional<InFlight> in_flight_;
    std::uint64_t total_transfers_ = 0;
};

}  // namespace rsafe::dev

#endif  // RSAFE_DEV_BLOCKDEV_H_
