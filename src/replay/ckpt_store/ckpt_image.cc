#include "replay/ckpt_store/ckpt_image.h"

#include <map>
#include <utility>

#include "isa/encoding.h"
#include "replay/checkpoint.h"
#include "replay/ckpt_store/compress.h"
#include "replay/ckpt_store/page_pool.h"
#include "rnr/wire.h"

namespace rsafe::replay::ckpt {

namespace {

namespace wire = rnr::wire;

/** The image's boolean width: every flag is a u64 0 or 1. */
using Flag = std::uint64_t;

// ---------------------------------------------------------------------
// SavedRas encoding.

void
put_saved_ras(wire::Writer& w, const cpu::SavedRas& ras)
{
    w.u64(ras.entries.size());
    for (const auto& entry : ras.entries) {
        w.u64(entry.addr);
        w.flag<Flag>(entry.restored);
    }
}

void
get_saved_ras(wire::Reader& r, cpu::SavedRas* out)
{
    // Every entry is 16 bytes; a count the frame cannot possibly hold is
    // a lying length, rejected before the reserve below can OOM.
    const auto count = r.count<std::uint64_t>(16, kMaxImageRasEntries);
    out->entries.clear();
    out->entries.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        cpu::RasEntry entry;
        entry.addr = r.u64();
        entry.restored = r.flag<Flag>();
        out->entries.push_back(entry);
    }
}

// ---------------------------------------------------------------------
// The meta frame (frame 0).

std::vector<std::uint8_t>
encode_meta(const Checkpoint& ck, std::uint64_t unique_count)
{
    std::vector<std::uint8_t> meta;
    wire::Writer w(&meta);
    w.u64(ck.id);
    w.u64(ck.icount);
    w.u64(ck.cycles);
    w.u64(ck.log_pos);
    w.u64(ck.copies);

    w.u64(isa::kNumRegs);
    for (const Word reg : ck.cpu_state.regs)
        w.u64(reg);
    w.u64(ck.cpu_state.pc);
    w.u64(ck.cpu_state.sp);
    w.u64(static_cast<std::uint64_t>(ck.cpu_state.mode));
    w.flag<Flag>(ck.cpu_state.iflag);
    w.flag<Flag>(ck.cpu_state.halted);
    w.u64(ck.pending_irq ? 0x100u + *ck.pending_irq : 0);

    w.flag<Flag>(ck.blockdev.busy);
    w.flag<Flag>(ck.blockdev.is_read);
    w.u64(ck.blockdev.block);
    w.u64(ck.blockdev.guest_addr);
    w.u64(ck.blockdev.cmd_block);
    w.u64(ck.blockdev.cmd_addr);
    w.u64(ck.blockdev.write_payload.size());
    w.bytes(ck.blockdev.write_payload);

    put_saved_ras(w, ck.ras);
    w.u64(ck.backras.size());
    for (const auto& [tid, saved] : ck.backras) {
        w.u64(tid);
        put_saved_ras(w, saved);
    }
    w.u64(ck.current_tid);
    w.flag<Flag>(ck.have_current_tid);
    w.flag<Flag>(ck.context_dying);

    w.u64(ck.pages.size());
    w.u64(ck.blocks.size());
    w.u64(unique_count);
    return meta;
}

Status
decode_meta(wire::Reader& r, Checkpoint* out, std::uint64_t* unique_count)
{
    out->id = r.u64();
    out->icount = r.u64();
    out->cycles = r.u64();
    out->log_pos = static_cast<std::size_t>(r.u64());
    out->copies = static_cast<std::size_t>(r.u64());

    const std::uint64_t num_regs = r.u64();
    if (num_regs != isa::kNumRegs)
        return r.fail(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image has ", num_regs,
                                  " registers, want ", isa::kNumRegs));
    for (auto& reg : out->cpu_state.regs)
        reg = r.u64();
    out->cpu_state.pc = r.u64();
    out->cpu_state.sp = r.u64();
    const std::uint64_t mode = r.u64();
    if (mode > static_cast<std::uint64_t>(cpu::Mode::kKernel))
        return r.fail(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image mode ", mode,
                                  " is not a privilege mode"));
    out->cpu_state.mode = static_cast<cpu::Mode>(mode);
    out->cpu_state.iflag = r.flag<Flag>();
    out->cpu_state.halted = r.flag<Flag>();
    const std::uint64_t irq = r.u64();
    if (irq == 0) {
        out->pending_irq.reset();
    } else if (irq >= 0x100 && irq <= 0x1ff) {
        out->pending_irq = static_cast<std::uint8_t>(irq - 0x100);
    } else {
        return r.fail(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image pending irq ", irq,
                                  " out of range"));
    }

    out->blockdev.busy = r.flag<Flag>();
    out->blockdev.is_read = r.flag<Flag>();
    out->blockdev.block = r.u64();
    out->blockdev.guest_addr = r.u64();
    out->blockdev.cmd_block = r.u64();
    out->blockdev.cmd_addr = r.u64();
    const auto payload = r.bytes(r.count<std::uint64_t>(1));
    out->blockdev.write_payload.assign(payload.begin(), payload.end());

    get_saved_ras(r, &out->ras);
    // A thread entry is at least 16 bytes (tid + empty-RAS count).
    const auto backras_count =
        r.count<std::uint64_t>(16, kMaxImageRasEntries);
    out->backras.clear();
    ThreadId prev_tid = 0;
    for (std::uint64_t i = 0; i < backras_count; ++i) {
        const std::uint64_t tid = r.u64();
        if (tid > 0xffffffffull)
            return r.fail(StatusCode::kMalformedRecord,
                          strcat_args("checkpoint image tid ", tid,
                                      " overflows ThreadId"));
        // std::map iteration order is ascending, so a canonical image
        // lists threads strictly ascending; anything else is a lying or
        // duplicated entry.
        if (i > 0 && static_cast<ThreadId>(tid) <= prev_tid)
            return r.fail(StatusCode::kMalformedRecord,
                          "checkpoint image BackRAS threads out of order");
        prev_tid = static_cast<ThreadId>(tid);
        get_saved_ras(r, &out->backras[prev_tid]);
    }
    const std::uint64_t current_tid = r.u64();
    if (current_tid > 0xffffffffull)
        return r.fail(StatusCode::kMalformedRecord,
                      "checkpoint image current tid overflows ThreadId");
    out->current_tid = static_cast<ThreadId>(current_tid);
    out->have_current_tid = r.flag<Flag>();
    out->context_dying = r.flag<Flag>();

    const std::uint64_t num_pages = r.u64();
    const std::uint64_t num_blocks = r.u64();
    if (num_pages > kMaxImageSlots || num_blocks > kMaxImageSlots ||
        num_pages + num_blocks > kMaxImageSlots)
        return r.fail(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image geometry ", num_pages,
                                  "+", num_blocks, " slots exceeds the ",
                                  kMaxImageSlots, "-slot bound"));
    out->pages = StoredPageTable(static_cast<std::size_t>(num_pages));
    out->blocks = StoredPageTable(static_cast<std::size_t>(num_blocks));
    *unique_count = r.u64();
    // Every unique page must be referenced by a slot, so U can never
    // exceed the slot count (and a canonical image needs U frames).
    if (*unique_count > num_pages + num_blocks)
        return r.fail(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image claims ", *unique_count,
                                  " unique pages for ",
                                  num_pages + num_blocks, " slots"));
    return r.status();
}

}  // namespace

std::vector<std::uint8_t>
serialize_checkpoint(const Checkpoint& checkpoint)
{
    // Unique pages in first-use order (slot walk: pages, then blocks).
    // The pool already collapsed equal content into shared StoredPages,
    // so pointer identity is content identity here.
    std::map<const StoredPage*, std::uint32_t> unique_index;
    std::vector<const StoredPage*> uniques;
    std::vector<std::uint8_t> slot_map;
    slot_map.reserve((checkpoint.pages.size() + checkpoint.blocks.size()) *
                     4);
    wire::Writer slot_writer(&slot_map);
    const auto add_slot = [&](const StoredPageRef& ref) {
        if (!ref) {
            slot_writer.u32(kNullSlot);
            return;
        }
        const auto [it, inserted] = unique_index.emplace(
            ref.get(), static_cast<std::uint32_t>(uniques.size()));
        if (inserted)
            uniques.push_back(ref.get());
        slot_writer.u32(it->second);
    };
    for (std::uint64_t i = 0; i < checkpoint.pages.size(); ++i)
        add_slot(checkpoint.pages.at(i));
    for (std::uint64_t i = 0; i < checkpoint.blocks.size(); ++i)
        add_slot(checkpoint.blocks.at(i));

    const std::vector<std::uint8_t> meta =
        encode_meta(checkpoint, uniques.size());

    std::vector<std::uint8_t> out;
    wire::Header header;
    header.kind = wire::PayloadKind::kCheckpointImage;
    header.frame_count = 2 + uniques.size();
    wire::encode_header(header, &out);
    wire::append_frame(0, meta.data(), meta.size(), &out);
    wire::append_frame(1, slot_map.data(), slot_map.size(), &out);
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < uniques.size(); ++i) {
        const StoredPage* page = uniques[i];
        frame.clear();
        wire::Writer w(&frame);
        w.u8(static_cast<std::uint8_t>(page->encoding()));
        w.bytes(page->encoded());
        wire::append_frame(static_cast<std::uint32_t>(2 + i), frame.data(),
                           frame.size(), &out);
    }
    return out;
}

Status
deserialize_checkpoint(const std::vector<std::uint8_t>& bytes,
                       Checkpoint* out)
{
    *out = Checkpoint();
    std::uint64_t unique_count = 0;
    std::vector<StoredPageRef> uniques;
    std::vector<std::uint32_t> slots;
    bool saw_meta = false;
    bool saw_slots = false;

    const wire::LoadReport report = wire::read_frames(
        bytes, wire::PayloadKind::kCheckpointImage,
        [&](std::uint64_t seq, wire::Reader& frame) {
            if (seq == 0) {
                const Status status = decode_meta(frame, out, &unique_count);
                saw_meta = status.ok();
                return status;
            }
            if (!saw_meta)
                return Status(StatusCode::kMalformedRecord,
                              "checkpoint image frame before its meta");
            if (seq == 1) {
                slots.resize(out->pages.size() + out->blocks.size());
                frame.array(std::span(slots));
                for (std::size_t i = 0; i < slots.size(); ++i) {
                    if (slots[i] != kNullSlot && slots[i] >= unique_count) {
                        return frame.fail(
                            StatusCode::kMalformedRecord,
                            strcat_args("checkpoint image slot ", i,
                                        " references unique page ",
                                        slots[i], " of ", unique_count));
                    }
                }
                saw_slots = frame.ok();
                return frame.status();
            }
            if (!saw_slots)
                return Status(StatusCode::kMalformedRecord,
                              "checkpoint image page before its slot map");
            if (seq - 2 >= unique_count)
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("checkpoint image has more than ",
                                          unique_count, " unique pages"));
            const std::uint8_t encoding_byte = frame.u8();
            const auto body = frame.rest();
            if (!frame.ok())
                return frame.status();
            // One pass over the encoded bytes validates the page and
            // classifies it as zero; nothing is decoded until restore.
            const auto encoding = static_cast<PageEncoding>(encoding_byte);
            bool is_zero = false;
            if (encoding == PageEncoding::kRaw) {
                if (body.size() != kPageSize) {
                    return Status(
                        StatusCode::kMalformedRecord,
                        strcat_args("checkpoint image raw page is ",
                                    body.size(), " bytes, want ",
                                    kPageSize));
                }
                is_zero = page_is_zero(body.data());
            } else if (encoding == PageEncoding::kRle) {
                const Status status = rle_validate(
                    body.data(), body.size(), kPageSize, &is_zero);
                if (!status.ok())
                    return status;
            } else {
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("checkpoint image page encoding ",
                                          static_cast<unsigned>(encoding_byte),
                                          " is unknown"));
            }
            uniques.push_back(std::make_shared<const StoredPage>(
                encoding,
                std::vector<std::uint8_t>(body.begin(), body.end()),
                is_zero));
            return Status();
        });
    if (!report.intact())
        return report.status;
    if (!saw_meta || !saw_slots)
        return Status(StatusCode::kMalformedRecord,
                      "checkpoint image is missing its meta or slot map");
    if (uniques.size() != unique_count) {
        return Status(StatusCode::kTruncated,
                      strcat_args("checkpoint image has ", uniques.size(),
                                  " of ", unique_count, " unique pages"));
    }

    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i] == kNullSlot)
            continue;
        const StoredPageRef& ref = uniques[slots[i]];
        if (i < out->pages.size())
            out->pages.set(i, ref);
        else
            out->blocks.set(i - out->pages.size(), ref);
    }
    return Status();
}

}  // namespace rsafe::replay::ckpt
