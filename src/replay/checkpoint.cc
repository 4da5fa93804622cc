#include "replay/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/log.h"
#include "obs/trace.h"
#include "rnr/wire.h"

namespace rsafe::replay {

namespace {

CheckpointStoreOptions
with_kill_switch(CheckpointStoreOptions options)
{
    if (std::getenv("RSAFE_NO_CKPT_COMPRESS") != nullptr)
        options.compress = false;
    return options;
}

CheckpointStoreOptions
options_for_max_keep(std::size_t max_keep)
{
    CheckpointStoreOptions options;
    options.max_keep = max_keep;
    return options;
}

ckpt::PagePoolOptions
pool_options(const CheckpointStoreOptions& options)
{
    ckpt::PagePoolOptions pool;
    pool.dedup = options.dedup;
    pool.compress = options.compress;
    return pool;
}

/**
 * Write every captured page of @p table that differs from what @p store
 * may already hold, through @p write(page, bytes). A zero page over a
 * pristine (never written, so zero) page is already in place, so a fresh
 * AR VM rewrites only the pages the recorded run made nonzero. Stored
 * pages decode through a stack buffer: compressed, deduped, and raw
 * storage all restore the same raw bytes, which the A/B determinism
 * gates hold bit-identical.
 */
template <typename Write>
void
restore_pages(const ckpt::StoredPageTable& table,
              const mem::PageStore& store, Write&& write)
{
    std::uint8_t raw[kPageSize];
    for (std::uint64_t page = 0; page < table.size(); ++page) {
        const auto& ref = table.at(page);
        // A null slot is only possible in a hand-built partial image.
        if (!ref || (ref->is_zero() && store.pristine(page)))
            continue;
        ref->copy_to(raw);
        write(page, raw);
    }
}

}  // namespace

CheckpointStore::CheckpointStore(std::size_t max_keep)
    : CheckpointStore(options_for_max_keep(max_keep))
{
}

CheckpointStore::CheckpointStore(const CheckpointStoreOptions& options)
    : options_(with_kill_switch(options)), pool_(pool_options(options_))
{
}

std::shared_ptr<const Checkpoint>
CheckpointStore::take(hv::Vm& vm, const hv::VmEnvBase& env,
                      std::size_t log_pos)
{
    auto ck = std::make_shared<Checkpoint>();
    ck->id = next_id_++;

    auto& mem = vm.mem();
    auto& disk = vm.hub().disk();
    const auto prev = latest();
    ck->copies += capture(mem.pages(), prev ? &prev->pages : nullptr,
                          &ck->pages);
    ck->copies += capture(disk, prev ? &prev->blocks : nullptr, &ck->blocks);
    mem.clear_dirty();
    disk.clear_dirty();

    auto& cpu = vm.cpu();
    ck->cpu_state = cpu.state();
    ck->cycles = cpu.cycles();
    ck->icount = cpu.icount();
    ck->pending_irq = cpu.vmcs().pending_irq;
    ck->blockdev = vm.hub().blockdev().export_state();
    ck->log_pos = log_pos;

    // The hardware dumps the RAS at checkpoint time so the checkpoint
    // holds the complete, up-to-date BackRAS (Section 4.6.1).
    ck->ras = cpu.ras().peek();
    ck->backras = env.backras().entries();
    ck->current_tid = env.current_tid();
    ck->have_current_tid = env.have_current_tid();
    ck->context_dying = env.context_dying();

    checkpoints_.push_back(ck);
    enforce_budget();
    return ck;
}

std::size_t
CheckpointStore::capture(const mem::PageStore& store,
                         const ckpt::StoredPageTable* prev,
                         ckpt::StoredPageTable* out)
{
    if (prev == nullptr) {
        // First checkpoint: full copy. Pages never written since
        // construction are zero, so they intern to the pool's shared
        // zero page without being read or hashed; the copy count (and
        // so the simulated cost) still covers every one of them.
        *out = ckpt::StoredPageTable(store.num_pages());
        for (std::uint64_t page = 0; page < store.num_pages(); ++page) {
            out->set(page, store.pristine(page)
                               ? pool_.intern_zero()
                               : pool_.intern(store.data(page)));
        }
        return store.num_pages();
    }
    // Incremental: share unmodified pages with the previous checkpoint
    // and copy only what was dirtied in this interval. Assigning a table
    // shares its chunks, so this is O(dirty), not O(all pages).
    *out = *prev;
    for (const std::uint64_t page : store.dirty_pages())
        out->set(page, pool_.intern(store.data(page)));
    return store.dirty_count();
}

void
CheckpointStore::enforce_budget()
{
    if (options_.max_keep != 0) {
        while (checkpoints_.size() > options_.max_keep) {
            checkpoints_.pop_front();
            ++count_evictions_;
        }
    }
    // Recycling a checkpoint frees only the pages no later checkpoint
    // (or in-flight alarm job) still shares, so each pop may reclaim
    // anything from nothing to the checkpoint's whole dirty delta; keep
    // popping until the live encoded bytes fit. The newest checkpoint
    // is never recycled — the budget trims history, not the present.
    if (options_.byte_budget == 0)
        return;
    while (checkpoints_.size() > 1 &&
           pool_.stats().live_bytes > options_.byte_budget) {
        checkpoints_.pop_front();
        ++budget_evictions_;
    }
}

CheckpointStoreStats
CheckpointStore::stats() const
{
    const ckpt::PagePoolStats pool = pool_.stats();
    CheckpointStoreStats out;
    out.bytes_raw = pool.bytes_raw;
    out.bytes_stored = pool.bytes_stored;
    out.dedup_hits = pool.dedup_hits;
    out.compressed_pages = pool.compressed_pages;
    out.live_bytes = pool.live_bytes;
    out.live_pages = pool.live_pages;
    out.budget_evictions = budget_evictions_;
    out.count_evictions = count_evictions_;
    return out;
}

std::shared_ptr<const Checkpoint>
CheckpointStore::latest() const
{
    return checkpoints_.empty() ? nullptr : checkpoints_.back();
}

std::shared_ptr<const Checkpoint>
CheckpointStore::latest_at_or_before(InstrCount icount) const
{
    const auto it = std::upper_bound(
        checkpoints_.begin(), checkpoints_.end(), icount,
        [](InstrCount value, const std::shared_ptr<const Checkpoint>& ck) {
            return value < ck->icount;
        });
    if (it == checkpoints_.begin())
        return nullptr;
    return *(it - 1);
}

std::shared_ptr<const Checkpoint>
CheckpointStore::at(std::size_t i) const
{
    if (i >= checkpoints_.size())
        panic("CheckpointStore::at out of range");
    return checkpoints_[i];
}

void
restore_checkpoint(const Checkpoint& checkpoint, hv::Vm* vm,
                   hv::VmEnvBase* env)
{
    obs::ScopedSpan span("checkpoint.restore", "cr");
    auto& mem = vm->mem();
    auto& disk = vm->hub().disk();
    if (checkpoint.pages.size() != mem.num_pages() ||
        checkpoint.blocks.size() != disk.num_pages()) {
        fatal("restore_checkpoint: VM geometry mismatch");
    }
    // RAM pages go through PhysMem::restore_page, which bumps the
    // page's code generation and tells the TB engine; disk blocks are
    // written straight into the disk's store.
    restore_pages(checkpoint.pages, mem.pages(),
                  [&](std::uint64_t page, const std::uint8_t* data) {
                      mem.restore_page(page, data);
                  });
    restore_pages(checkpoint.blocks, disk,
                  [&](std::uint64_t block, const std::uint8_t* data) {
                      disk.write(block, data);
                  });
    mem.clear_dirty();
    disk.clear_dirty();

    auto& cpu = vm->cpu();
    cpu.state() = checkpoint.cpu_state;
    cpu.set_clocks(checkpoint.cycles, checkpoint.icount);
    cpu.vmcs().pending_irq = checkpoint.pending_irq;
    vm->hub().blockdev().import_state(checkpoint.blockdev);

    cpu.ras().load(checkpoint.ras);
    env->backras().restore(checkpoint.backras);
    env->restore_context(checkpoint.current_tid,
                         checkpoint.have_current_tid,
                         checkpoint.context_dying);
}

namespace {

namespace wire = rnr::wire;

/** Hash one page table's raw contents in index order (nulls included).
 *  Hashing the decoded bytes keeps digests independent of how pages are
 *  stored: compressed, deduped, and raw chains digest identically. */
std::uint64_t
hash_page_table(const ckpt::StoredPageTable& table)
{
    std::uint64_t hash = wire::kFnvOffset;
    std::uint8_t raw[kPageSize];
    for (std::uint64_t i = 0; i < table.size(); ++i) {
        const auto& ref = table.at(i);
        if (!ref) {
            hash = wire::fnv1a64_u64(0x6e756c6cULL /* "null" */, hash);
            continue;
        }
        ref->copy_to(raw);
        hash = wire::fnv1a64(raw, kPageSize, hash);
    }
    return hash;
}

std::uint64_t
hash_saved_ras(const cpu::SavedRas& ras, std::uint64_t hash)
{
    hash = wire::fnv1a64_u64(ras.entries.size(), hash);
    for (const auto& entry : ras.entries) {
        hash = wire::fnv1a64_u64(entry.addr, hash);
        hash = wire::fnv1a64_u64(entry.restored ? 1 : 0, hash);
    }
    return hash;
}

}  // namespace

CheckpointDigest
digest_of(const Checkpoint& checkpoint)
{
    CheckpointDigest digest;
    digest.id = checkpoint.id;
    digest.icount = checkpoint.icount;
    digest.cycles = checkpoint.cycles;
    digest.log_pos = checkpoint.log_pos;

    std::uint64_t cpu = wire::kFnvOffset;
    for (const Word reg : checkpoint.cpu_state.regs)
        cpu = wire::fnv1a64_u64(reg, cpu);
    cpu = wire::fnv1a64_u64(checkpoint.cpu_state.pc, cpu);
    cpu = wire::fnv1a64_u64(checkpoint.cpu_state.sp, cpu);
    cpu = wire::fnv1a64_u64(
        static_cast<std::uint64_t>(checkpoint.cpu_state.mode), cpu);
    cpu = wire::fnv1a64_u64(checkpoint.cpu_state.iflag ? 1 : 0, cpu);
    cpu = wire::fnv1a64_u64(checkpoint.cpu_state.halted ? 1 : 0, cpu);
    cpu = wire::fnv1a64_u64(
        checkpoint.pending_irq ? 0x100u + *checkpoint.pending_irq : 0, cpu);
    digest.cpu_hash = cpu;

    digest.pages_hash = hash_page_table(checkpoint.pages);
    digest.blocks_hash = hash_page_table(checkpoint.blocks);

    std::uint64_t ras = wire::kFnvOffset;
    ras = hash_saved_ras(checkpoint.ras, ras);
    ras = wire::fnv1a64_u64(checkpoint.backras.size(), ras);
    for (const auto& [tid, saved] : checkpoint.backras) {
        ras = wire::fnv1a64_u64(tid, ras);
        ras = hash_saved_ras(saved, ras);
    }
    ras = wire::fnv1a64_u64(checkpoint.current_tid, ras);
    ras = wire::fnv1a64_u64(checkpoint.have_current_tid ? 1 : 0, ras);
    ras = wire::fnv1a64_u64(checkpoint.context_dying ? 1 : 0, ras);
    digest.ras_hash = ras;
    return digest;
}

std::vector<std::uint8_t>
CheckpointDigest::serialize() const
{
    std::vector<std::uint8_t> payload;
    wire::Writer w(&payload);
    for (const std::uint64_t field : {id, icount, cycles, log_pos, cpu_hash,
                                      pages_hash, blocks_hash, ras_hash})
        w.u64(field);

    std::vector<std::uint8_t> out;
    wire::Header header;
    header.kind = wire::PayloadKind::kCheckpointDigest;
    header.frame_count = 1;
    wire::encode_header(header, &out);
    wire::append_frame(0, payload.data(), payload.size(), &out);
    return out;
}

Status
CheckpointDigest::deserialize(const std::vector<std::uint8_t>& bytes,
                              CheckpointDigest* out)
{
    bool seen = false;
    const wire::LoadReport report = wire::read_frames(
        bytes, wire::PayloadKind::kCheckpointDigest,
        [&](std::uint64_t, wire::Reader& frame) {
            if (seen)
                return Status(StatusCode::kMalformedRecord,
                              "checkpoint digest has more than one frame");
            out->id = frame.u64();
            out->icount = frame.u64();
            out->cycles = frame.u64();
            out->log_pos = frame.u64();
            out->cpu_hash = frame.u64();
            out->pages_hash = frame.u64();
            out->blocks_hash = frame.u64();
            out->ras_hash = frame.u64();
            seen = true;
            return frame.status();
        });
    if (!report.intact())
        return report.status;
    if (!seen)
        return Status(StatusCode::kMalformedRecord,
                      "checkpoint digest image has no frame");
    return Status();
}

std::string
CheckpointDigest::to_string() const
{
    std::ostringstream os;
    os << "chk#" << id << " icount=" << icount << " cycles=" << cycles
       << " log_pos=" << log_pos << std::hex << " cpu=0x" << cpu_hash
       << " pages=0x" << pages_hash << " blocks=0x" << blocks_hash
       << " ras=0x" << ras_hash << std::dec;
    return os.str();
}

}  // namespace rsafe::replay
