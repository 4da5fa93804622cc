#ifndef RSAFE_REPLAY_CHECKPOINT_H_
#define RSAFE_REPLAY_CHECKPOINT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "cpu/cpu.h"
#include "cpu/ras.h"
#include "dev/blockdev.h"
#include "hv/hypervisor.h"
#include "hv/vm.h"
#include "replay/ckpt_store/page_pool.h"

/**
 * @file
 * Incremental copy-on-write checkpoints (Section 4.6.1, Figure 4).
 *
 * A checkpoint holds (1) the full VM state — every memory page, the
 * processor state, and the virtual-disk contents — where pages/blocks
 * unmodified since the previous checkpoint are shared by reference with
 * it ("a pointer to it in the latest checkpoint that modified it");
 * (2) the InputLogPtr, the index of the next input-log record; and
 * (3) the BackRAS (including the live RAS of the current thread), which
 * the alarm replayer reads into its software RAS.
 *
 * Recycling falls out of shared ownership: dropping a checkpoint frees a
 * page only when no later checkpoint still references it.
 *
 * RAM and disk are the same kind of state (one mem::PageStore each), so
 * take() captures both with one walk and restore_checkpoint() restores
 * both with another. The page/block maps are persistent chunked arrays
 * shared between consecutive checkpoints — so taking an incremental
 * checkpoint costs O(dirty pages), not O(all pages). Restore skips a
 * zero page over a pristine (never written, so zero) one and rewrites
 * every other captured page, into a fresh VM or the VM the checkpoint
 * came from alike.
 *
 * Page contents live in a content-hash dedup pool (ckpt_store/) that
 * RLE-compresses them, so the chain's stored footprint is a fraction of
 * the raw page bytes; the CheckpointStore recycles oldest-first under
 * both a count cap and a byte-denominated storage budget. A complete
 * checkpoint serializes onto the hardened wire format
 * (PayloadKind::kCheckpointImage, ckpt_store/ckpt_image.h) so an alarm
 * replayer can boot from a checkpoint shipped from another process.
 */

namespace rsafe::replay {

/** One checkpoint. */
struct Checkpoint {
    std::uint64_t id = 0;

    // (1) Full VM state, incrementally shared (and content-deduped).
    ckpt::StoredPageTable pages;   ///< indexed by page number
    ckpt::StoredPageTable blocks;  ///< indexed by block number
    cpu::CpuState cpu_state;
    Cycles cycles = 0;
    InstrCount icount = 0;
    std::optional<std::uint8_t> pending_irq;
    dev::BlockDevState blockdev;

    // (2) InputLogPtr.
    std::size_t log_pos = 0;

    // (3) BackRAS + the current thread's live RAS and tracking state.
    cpu::SavedRas ras;
    std::map<ThreadId, cpu::SavedRas> backras;
    ThreadId current_tid = 0;
    bool have_current_tid = false;
    bool context_dying = false;

    /** Pages+blocks copied when this checkpoint was taken (cost basis). */
    std::size_t copies = 0;
};

/**
 * A compact, machine-portable summary of a checkpoint's state: enough to
 * assert that two independently produced checkpoints captured the same
 * instant of the same execution (cross-pipeline determinism audits,
 * golden-corpus compatibility gates). Serialized in the hardened wire
 * format (rnr/wire.h) with the same CRC/versioning guarantees as the
 * input log, so a digest shipped between machines fails loudly — never
 * silently — when damaged.
 *
 * Only run-deterministic fields participate, so digests compare equal
 * across processes.
 */
struct CheckpointDigest {
    std::uint64_t id = 0;
    std::uint64_t icount = 0;
    std::uint64_t cycles = 0;
    std::uint64_t log_pos = 0;
    std::uint64_t cpu_hash = 0;    ///< registers, pc, sp, mode, flags
    std::uint64_t pages_hash = 0;  ///< every captured RAM page, in order
    std::uint64_t blocks_hash = 0; ///< every captured disk block, in order
    std::uint64_t ras_hash = 0;    ///< live RAS + BackRAS + thread context

    bool operator==(const CheckpointDigest&) const = default;

    /** Wire-format encoding (PayloadKind::kCheckpointDigest). */
    std::vector<std::uint8_t> serialize() const;

    /** Strict parse; any integrity defect is an error, never an abort. */
    static Status deserialize(const std::vector<std::uint8_t>& bytes,
                              CheckpointDigest* out);

    /** One-line rendering (diagnostics). */
    std::string to_string() const;
};

/** Compute the digest of @p checkpoint. */
CheckpointDigest digest_of(const Checkpoint& checkpoint);

/** CheckpointStore configuration. */
struct CheckpointStoreOptions {
    /** Keep at most this many checkpoints (0 = unlimited history). */
    std::size_t max_keep = 0;
    /**
     * Byte-denominated storage budget: after a take(), the oldest
     * checkpoints are recycled until the pool's live encoded bytes fit
     * (0 = unlimited). The newest checkpoint is always kept, so the
     * budget bounds history depth, never correctness; an alarm older
     * than the oldest surviving checkpoint surfaces as a clean
     * checkpoint-unavailable verdict, not UB.
     */
    std::uint64_t byte_budget = 0;
    /** Content-hash dedup of equal pages across the chain. */
    bool dedup = true;
    /**
     * RLE-compress stored pages. The RSAFE_NO_CKPT_COMPRESS environment
     * variable is a runtime kill-switch that forces this off — the A/B
     * lever for the bit-identical determinism gate.
     */
    bool compress = true;
};

/** Storage accounting for one store (see PagePoolStats). */
struct CheckpointStoreStats {
    std::uint64_t bytes_raw = 0;      ///< page copies at raw page size
    std::uint64_t bytes_stored = 0;   ///< cumulative unique encoded bytes
    std::uint64_t dedup_hits = 0;     ///< copies shared instead of stored
    std::uint64_t compressed_pages = 0;
    std::uint64_t live_bytes = 0;     ///< encoded bytes still referenced
    std::uint64_t live_pages = 0;
    std::uint64_t budget_evictions = 0;  ///< checkpoints dropped to budget
    std::uint64_t count_evictions = 0;   ///< checkpoints dropped to max_keep
};

/** Builds, retains, and recycles checkpoints for one replay stream. */
class CheckpointStore {
  public:
    /** Keep at most @p max_keep checkpoints (0 = unlimited history). */
    explicit CheckpointStore(std::size_t max_keep);

    /** Full configuration (kill-switch applied here). */
    explicit CheckpointStore(const CheckpointStoreOptions& options);

    /**
     * Take a checkpoint of @p vm at the current instant.
     *
     * The first checkpoint copies every page/block; later ones copy only
     * pages/blocks dirtied since the previous call and share the rest.
     * Clears the dirty tracking.
     *
     * @param env      the replay environment (for BackRAS and context).
     * @param log_pos  the InputLogPtr to store.
     * @return the new checkpoint (owned by the store).
     */
    std::shared_ptr<const Checkpoint> take(hv::Vm& vm,
                                           const hv::VmEnvBase& env,
                                           std::size_t log_pos);

    /** @return the most recent checkpoint, or nullptr. */
    std::shared_ptr<const Checkpoint> latest() const;

    /**
     * @return the latest checkpoint with icount <= @p icount, or null.
     * Checkpoints are taken in icount order, so this is a binary search.
     */
    std::shared_ptr<const Checkpoint> latest_at_or_before(
        InstrCount icount) const;

    /** @return number of retained checkpoints. */
    std::size_t size() const { return checkpoints_.size(); }

    /** @return checkpoint @p i (oldest first). */
    std::shared_ptr<const Checkpoint> at(std::size_t i) const;

    /** @return total pages+blocks copied across all checkpoints. */
    std::uint64_t total_copies() const
    {
        return pool_.stats().pages_interned;
    }

    /** Storage accounting (dedup, compression, recycling). */
    CheckpointStoreStats stats() const;

    /** The in-effect configuration (kill-switch already applied). */
    const CheckpointStoreOptions& options() const { return options_; }

  private:
    /**
     * Intern @p store's pages into @p out: every page when @p prev is
     * null (the first checkpoint), else @p prev's table with the dirty
     * pages replaced. @return the number of pages copied.
     */
    std::size_t capture(const mem::PageStore& store,
                        const ckpt::StoredPageTable* prev,
                        ckpt::StoredPageTable* out);

    /** Recycle oldest-first until count and byte budget both fit. */
    void enforce_budget();

    CheckpointStoreOptions options_;
    std::uint64_t next_id_ = 0;
    ckpt::PagePool pool_;
    std::uint64_t budget_evictions_ = 0;
    std::uint64_t count_evictions_ = 0;
    std::deque<std::shared_ptr<const Checkpoint>> checkpoints_;
};

/**
 * Restore @p checkpoint into @p vm / @p env (the alarm replayer's first
 * step, Section 4.6.2). The VM must have the same configuration as the
 * one the checkpoint was taken from.
 */
void restore_checkpoint(const Checkpoint& checkpoint, hv::Vm* vm,
                        hv::VmEnvBase* env);

}  // namespace rsafe::replay

#endif  // RSAFE_REPLAY_CHECKPOINT_H_
