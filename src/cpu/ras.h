#ifndef RSAFE_CPU_RAS_H_
#define RSAFE_CPU_RAS_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

/**
 * @file
 * The hardware Return Address Stack with RnR-Safe's extensions (Section 4).
 *
 * The baseline RAS is the ordinary return-target predictor: calls push the
 * fall-through address, returns pop a prediction. RnR-Safe adds:
 *
 *  - an eviction exception: when a push would evict the oldest entry, the
 *    evicted address is surfaced so the hypervisor can log an Evict record
 *    (Section 4.5),
 *  - save/restore microcode: the whole stack can be dumped to / reloaded
 *    from a per-thread BackRAS entry on context switches (Section 4.3),
 *  - whitelists: a return whose PC is in RetWhitelist does not pop the RAS
 *    and is legal iff its target is in TarWhitelist (Section 4.4).
 *
 * Entries restored from a BackRAS are tagged so the simulator can count
 * how many mispredictions the BackRAS mechanism suppressed (Figure 8).
 *
 * Storage: a fixed ring of depth() entries, allocated once. A push onto
 * a full RAS overwrites the bottom (oldest) entry in place, so push and
 * pop are O(1) at any depth; the top is the slot before top_. The
 * whitelists hold a handful of PCs each (one ret, three targets for
 * the guest kernel) and are flat vectors scanned linearly. push(),
 * predict() and would_predict() are defined here so the interpreter and
 * the TB engine's call/ret micro-ops inline them.
 */

namespace rsafe::cpu {

/** One saved RAS entry (address + restored-from-BackRAS tag). */
struct RasEntry {
    Addr addr = 0;
    bool restored = false;
};

/** A full saved copy of the RAS (one BackRAS array element). */
struct SavedRas {
    std::vector<RasEntry> entries;  ///< bottom first
};

/** Outcome of the RAS predict step at a return instruction. */
enum class RasPredict {
    kHit,             ///< predicted target matches the actual target
    kHitRestored,     ///< hit via an entry restored from the BackRAS
    kMispredict,      ///< popped prediction differs from the actual target
    kUnderflow,       ///< RAS empty at the pop
    kWhitelisted,     ///< ret PC whitelisted, target legal; RAS untouched
    kWhitelistMiss,   ///< ret PC whitelisted but target not in TarWhitelist
};

/** The hardware RAS. */
class Ras {
  public:
    /** Default hardware depth (Section 7.5 simulates a 48-entry RAS). */
    static constexpr std::size_t kDefaultDepth = 48;

    explicit Ras(std::size_t depth = kDefaultDepth);

    /** @return configured depth. */
    std::size_t depth() const { return ring_.size(); }

    /** @return current number of valid entries. */
    std::size_t size() const { return size_; }

    /** @return true when the next push() evicts the oldest entry. */
    bool full() const { return size_ == ring_.size(); }

    /**
     * Push a return address (a call executed).
     * @return the evicted oldest entry if the stack was full.
     */
    std::optional<Addr> push(Addr addr)
    {
        // When full, the slot at top_ holds the bottom entry.
        std::optional<Addr> evicted;
        if (full())
            evicted = ring_[top_].addr;
        else
            ++size_;
        ring_[top_] = RasEntry{addr, false};
        top_ = top_ + 1 == ring_.size() ? 0 : top_ + 1;
        return evicted;
    }

    /**
     * Predict at a return instruction.
     * @param ret_pc     PC of the return instruction.
     * @param target     the actual target (from the software stack).
     * @param predicted  out: the popped prediction (0 if none was popped).
     */
    RasPredict predict(Addr ret_pc, Addr target, Addr* predicted)
    {
        *predicted = 0;
        if (ret_whitelisted(ret_pc)) {
            // Non-procedural return: the RAS holds no corresponding entry,
            // so popping it would corrupt the stack (Section 4.4).
            return listed(tar_whitelist_, target) ? RasPredict::kWhitelisted
                                                  : RasPredict::kWhitelistMiss;
        }
        if (size_ == 0)
            return RasPredict::kUnderflow;
        top_ = top_slot();
        --size_;
        const RasEntry& top = ring_[top_];
        *predicted = top.addr;
        if (top.addr != target)
            return RasPredict::kMispredict;
        return top.restored ? RasPredict::kHitRestored : RasPredict::kHit;
    }

    /**
     * @return true when predict(@p ret_pc, @p target) would be a hit
     * (restored or not) or a whitelisted return, i.e. raise no alarm.
     * Reads the RAS without changing it.
     */
    bool would_predict(Addr ret_pc, Addr target) const
    {
        if (ret_whitelisted(ret_pc))
            return listed(tar_whitelist_, target);
        return size_ != 0 && ring_[top_slot()].addr == target;
    }

    /** Enable/disable whitelist checking (ablation hook). */
    void set_whitelist_enabled(bool enabled) { whitelist_enabled_ = enabled; }

    /** Install the return whitelist (hypervisor only). */
    void set_ret_whitelist(std::vector<Addr> pcs)
    {
        ret_whitelist_ = std::move(pcs);
    }

    /** Install the target whitelist (hypervisor only). */
    void set_tar_whitelist(std::vector<Addr> pcs)
    {
        tar_whitelist_ = std::move(pcs);
    }

    /** Microcode: dump all entries into a BackRAS element and clear. */
    SavedRas save_and_clear();

    /** Microcode: dump all entries without clearing (checkpointing). */
    SavedRas peek() const;

    /** Microcode: reload from a BackRAS element (entries become tagged). */
    void load(const SavedRas& saved);

    /** Drop all entries (e.g., at VM reset). */
    void clear()
    {
        top_ = 0;
        size_ = 0;
    }

  private:
    /** @return the slot of the top entry (meaningful when size_ > 0). */
    std::size_t top_slot() const
    {
        return top_ == 0 ? ring_.size() - 1 : top_ - 1;
    }

    static bool listed(const std::vector<Addr>& list, Addr pc)
    {
        return std::find(list.begin(), list.end(), pc) != list.end();
    }

    bool ret_whitelisted(Addr ret_pc) const
    {
        return whitelist_enabled_ && listed(ret_whitelist_, ret_pc);
    }

    std::vector<RasEntry> ring_;  ///< depth() slots, never resized
    std::size_t top_ = 0;         ///< slot the next push writes
    std::size_t size_ = 0;        ///< valid entries, at most depth()
    bool whitelist_enabled_ = true;
    std::vector<Addr> ret_whitelist_;
    std::vector<Addr> tar_whitelist_;
};

}  // namespace rsafe::cpu

#endif  // RSAFE_CPU_RAS_H_
