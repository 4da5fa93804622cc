#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "obs/flight_recorder.h"
#include "replay/checkpoint.h"
#include "replay/checkpoint_replayer.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "rnr/log_io.h"
#include "rnr/recorder.h"
#include "rnr/wire.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

/**
 * @file
 * rsafe-corpus: regenerate the checked-in wire corpus (tests/corpus).
 *
 *   rsafe-corpus [corpus-root]       default root: tests/corpus
 *
 * Emits three things:
 *
 *  - fuzz seed inputs under wire/, log/ and checkpoint/ — intact images
 *    of every artifact plus one deterministically-faulted variant per
 *    FaultKind, so the fuzzers start from inputs that reach deep into
 *    the decoders rather than dying at the magic check;
 *  - the golden replay corpus under golden/: one serialized recording of
 *    each Table 3 benchmark (golden_profile shape) plus manifest.txt
 *    with the machine digest each must replay to — the wire-compat CI
 *    gate (test_wire_compat) re-replays these bytes and any format or
 *    determinism drift fails the build.
 *
 * Everything here is seeded; reruns produce byte-identical output.
 */

namespace rsafe {
namespace {

namespace fs = std::filesystem;

void
write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "rsafe-corpus: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** A small log touching every record type (fuzz seed material). */
rnr::InputLog
sample_log()
{
    rnr::InputLog log;
    for (int t = 0; t <= static_cast<int>(rnr::RecordType::kDiskComplete);
         ++t) {
        rnr::LogRecord record;
        record.type = static_cast<rnr::RecordType>(t);
        record.icount = 1000 + 17 * static_cast<InstrCount>(t);
        record.value =
            record.type == rnr::RecordType::kIrqInject ? 0xef : 0xfeedbeef;
        record.addr = record.type == rnr::RecordType::kIoIn
                          ? 0x10
                          : 0xF0000008ULL;
        record.tid = 3;
        record.alarm.kind = cpu::RasAlarmKind::kUnderflow;
        record.alarm.ret_pc = 0x2048;
        record.alarm.predicted = 0x2050;
        record.alarm.actual = 0x6000;
        record.alarm.sp_after = 0x21000;
        record.alarm.kernel_mode = true;
        if (record.type == rnr::RecordType::kNicDma)
            record.payload = {1, 2, 3, 4, 5};
        log.append(std::move(record));
    }
    return log;
}

/**
 * A small hand-built checkpoint exercising every image field: a zero
 * page (RLE), an incompressible page (raw), a shared page (dedup on the
 * wire), a null slot, disk blocks, an in-flight DMA write, a pending
 * irq, and a multi-thread BackRAS. Fuzz seed material — tiny on disk,
 * deep into the decoder.
 */
replay::Checkpoint
sample_checkpoint()
{
    replay::ckpt::PagePool pool{replay::ckpt::PagePoolOptions{}};
    replay::Checkpoint ck;
    ck.id = 5;
    ck.icount = 123456;
    ck.cycles = 234567;
    ck.log_pos = 17;
    ck.copies = 6;
    for (std::size_t r = 0; r < ck.cpu_state.regs.size(); ++r)
        ck.cpu_state.regs[r] = 0x1000 + 3 * r;
    ck.cpu_state.pc = 0x2048;
    ck.cpu_state.sp = 0x21000;
    ck.cpu_state.mode = cpu::Mode::kKernel;
    ck.cpu_state.iflag = true;
    ck.pending_irq = 5;
    ck.blockdev.busy = true;
    ck.blockdev.block = 9;
    ck.blockdev.guest_addr = 0x4000;
    ck.blockdev.write_payload = {0xde, 0xad, 0xbe, 0xef};
    ck.ras.entries.push_back(cpu::RasEntry{0x2050, false});
    ck.ras.entries.push_back(cpu::RasEntry{0x2090, true});
    ck.backras[2].entries.push_back(cpu::RasEntry{0x3000, false});
    ck.backras[7].entries.push_back(cpu::RasEntry{0x3100, true});
    ck.current_tid = 2;
    ck.have_current_tid = true;

    std::vector<std::uint8_t> page(kPageSize, 0);
    ck.pages = replay::ckpt::StoredPageTable(4);
    ck.pages.set(0, pool.intern(page.data()));  // zero page: RLE
    for (std::size_t i = 0; i < kPageSize; ++i)
        page[i] = static_cast<std::uint8_t>(7 * i + 13);  // runless: raw
    ck.pages.set(1, pool.intern(page.data()));
    ck.pages.set(2, ck.pages.at(0));  // shared slot (dedup on the wire)
    // slot 3 stays null.
    ck.blocks = replay::ckpt::StoredPageTable(2);
    ck.blocks.set(0, ck.pages.at(1));
    page.assign(kPageSize, 0xa5);
    ck.blocks.set(1, pool.intern(page.data()));
    return ck;
}

/**
 * A small flight-recorder dump touching every entry kind plus shed
 * entries and escaped strings — seed material for the kFlightBox
 * decoder fuzzer.
 */
obs::FlightBox
sample_flight_box()
{
    obs::FlightBox box;
    box.reason = "attack-verdict:attacker";
    box.total_appended = 9;
    box.dropped = 4;
    const auto add = [&](obs::FlightEntryKind kind, const char* tenant,
                         const char* label, std::uint64_t value,
                         const char* detail) {
        obs::FlightEntry entry;
        entry.kind = kind;
        entry.t_ms = 100 + 10 * box.entries.size();
        entry.tenant = tenant;
        entry.label = label;
        entry.value = value;
        entry.detail = detail;
        box.entries.push_back(std::move(entry));
    };
    add(obs::FlightEntryKind::kNote, "", "boot", 0, "fleet up");
    add(obs::FlightEntryKind::kSample, "attacker", "signals", 7,
        "replay_lag=54686 queue_depth=7");
    add(obs::FlightEntryKind::kTransition, "attacker", "queue_depth", 7,
        "tenant=attacker queue_depth healthy->critical");
    add(obs::FlightEntryKind::kVerdict, "attacker", "attack", 1357,
        "quote \" backslash \\ newline \n tab \t");
    add(obs::FlightEntryKind::kShutdown, "", "abandon", 0, "");
    return box;
}

/** Write @p image plus one faulted variant per FaultKind into @p dir. */
void
emit_fault_variants(const fs::path& dir, const std::string& stem,
                    const std::vector<std::uint8_t>& image,
                    std::uint64_t seed)
{
    write_file(dir / (stem + ".bin"), image);
    fault::Injector injector(seed);
    for (const fault::FaultKind kind : fault::kAllFaultKinds) {
        std::vector<std::uint8_t> copy = image;
        fault::FaultReport report;
        if (!injector.inject(kind, &copy, &report).ok())
            continue;  // image shape cannot express this fault
        write_file(dir / (stem + "_" + fault_kind_name(kind) + ".bin"),
                   copy);
    }
}

std::string
hex64(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

}  // namespace
}  // namespace rsafe

int
main(int argc, char** argv)
{
    using namespace rsafe;

    const fs::path root = argc > 1 ? fs::path(argv[1]) : "tests/corpus";
    for (const char* sub :
         {"wire", "log", "checkpoint", "ckpt", "flight", "golden"})
        fs::create_directories(root / sub);

    // ---- fuzz seeds -------------------------------------------------
    const rnr::InputLog small = sample_log();
    const auto small_image = small.serialize();
    emit_fault_variants(root / "log", "records", small_image, 0x5EED0001);
    write_file(root / "log" / "empty.bin", rnr::InputLog().serialize());

    replay::CheckpointDigest digest;
    digest.id = 7;
    digest.icount = 123456;
    digest.cycles = 654321;
    digest.log_pos = 42;
    digest.cpu_hash = 0x1111111111111111ULL;
    digest.pages_hash = 0x2222222222222222ULL;
    digest.blocks_hash = 0x3333333333333333ULL;
    digest.ras_hash = 0x4444444444444444ULL;
    emit_fault_variants(root / "checkpoint", "digest", digest.serialize(),
                        0x5EED0002);

    // ckpt/: complete checkpoint images for the image fuzzer — the rich
    // sample plus one faulted variant per kind, and a degenerate empty
    // checkpoint (0 pages, 0 blocks).
    const auto ckpt_image =
        replay::ckpt::serialize_checkpoint(sample_checkpoint());
    emit_fault_variants(root / "ckpt", "image", ckpt_image, 0x5EED0004);
    write_file(root / "ckpt" / "empty.bin",
               replay::ckpt::serialize_checkpoint(replay::Checkpoint()));

    // flight/: flight-recorder dumps for the black-box fuzzer — every
    // entry kind, one faulted variant per kind, and an empty box.
    const auto flight_image = sample_flight_box().serialize();
    emit_fault_variants(root / "flight", "box", flight_image, 0x5EED0005);
    write_file(root / "flight" / "empty.bin",
               obs::FlightBox().serialize());

    // wire/ mixes the payload kinds (the raw walker sees everything).
    emit_fault_variants(root / "wire", "log", small_image, 0x5EED0003);
    write_file(root / "wire" / "digest.bin", digest.serialize());
    write_file(root / "wire" / "ckpt_image.bin", ckpt_image);
    write_file(root / "wire" / "empty.bin", rnr::InputLog().serialize());

    // ---- golden replay corpus ---------------------------------------
    std::ostringstream manifest;
    manifest << "# benchmark  file  records  icount  final_state_hash\n";
    // Golden serialized checkpoints ride in their own manifest (different
    // row shape): the image size, the chain geometry, and the fnv-64 of
    // the serialized CheckpointDigest the image must deserialize to.
    std::ostringstream ckpt_manifest;
    ckpt_manifest << "# benchmark  file  bytes  pages  blocks"
                     "  digest_hash\n";
    const auto emit_golden_ckpt = [&](const std::string& name,
                                      const rnr::InputLog& log,
                                      const auto& factory) {
        auto cr_vm = factory();
        replay::CrOptions cr_options;
        cr_options.checkpoint_interval = 50'000;
        replay::CheckpointReplayer cr(cr_vm.get(), &log, cr_options);
        if (cr.run() != rnr::ReplayOutcome::kFinished) {
            std::fprintf(stderr,
                         "rsafe-corpus: golden CR replay of %s failed\n",
                         name.c_str());
            std::exit(1);
        }
        const auto ck = cr.checkpoints().latest();
        const auto image = replay::ckpt::serialize_checkpoint(*ck);
        write_file(root / "golden" / (name + ".ckpt"), image);
        const auto digest_bytes = replay::digest_of(*ck).serialize();
        ckpt_manifest << name << " " << name << ".ckpt " << image.size()
                      << " " << ck->pages.size() << " " << ck->blocks.size()
                      << " "
                      << hex64(rnr::wire::fnv1a64(digest_bytes.data(),
                                                  digest_bytes.size()))
                      << "\n";
    };
    for (const std::string& name : workloads::benchmark_names()) {
        const auto profile = workloads::golden_profile(name);
        auto factory = workloads::vm_factory(profile);
        auto vm = factory();
        rnr::Recorder recorder(vm.get(), rnr::RecorderOptions{});
        const auto result = recorder.run(~static_cast<InstrCount>(0));
        if (result != hv::RunResult::kHalted) {
            std::fprintf(stderr,
                         "rsafe-corpus: golden run of %s did not halt\n",
                         name.c_str());
            return 1;
        }
        const auto image = recorder.log().serialize();
        const std::string file = name + ".rnrlog";
        write_file(root / "golden" / file, image);
        manifest << name << " " << file << " " << recorder.log().size()
                 << " " << vm->cpu().icount() << " "
                 << hex64(vm->state_hash()) << "\n";
        emit_golden_ckpt(name, recorder.log(), factory);
    }
    // The golden attack recording: the shared attack mix (one attacker,
    // test-sized). rsafe-report and test_obs replay these bytes and must
    // recover the same forensics (k_vulnerable, attacker tid, hijacked
    // return) forever.
    {
        const auto mix = workloads::attack_mix();
        auto vm = mix.factory();
        rnr::Recorder recorder(vm.get(), rnr::RecorderOptions{});
        const auto result = recorder.run(~static_cast<InstrCount>(0));
        if (result != hv::RunResult::kHalted) {
            std::fprintf(stderr,
                         "rsafe-corpus: golden attack run did not halt\n");
            return 1;
        }
        write_file(root / "golden" / "attack.rnrlog",
                   recorder.log().serialize());
        manifest << "attack attack.rnrlog " << recorder.log().size() << " "
                 << vm->cpu().icount() << " " << hex64(vm->state_hash())
                 << "\n";
        emit_golden_ckpt("attack", recorder.log(), mix.factory);
    }

    const std::string text = manifest.str();
    write_file(root / "golden" / "manifest.txt",
               std::vector<std::uint8_t>(text.begin(), text.end()));
    const std::string ckpt_text = ckpt_manifest.str();
    write_file(root / "golden" / "ckpt_manifest.txt",
               std::vector<std::uint8_t>(ckpt_text.begin(),
                                         ckpt_text.end()));

    std::printf("rsafe-corpus: corpus written under %s\n",
                root.c_str());
    return 0;
}
