/** @file Tests of hypervisor modes: PV vs mediated I/O, BackRAS table,
 *  context tracking, and recording-mode cost relationships. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "hv/back_ras.h"
#include "hv/hypervisor.h"
#include "kernel/layout.h"
#include "rnr/recorder.h"
#include "test_util.h"

namespace rsafe {
namespace {

namespace k = rsafe::kernel;
using isa::R1;
using isa::R2;
using test::emit_exit;
using test::emit_syscall;
using test::make_test_vm;
using test::user_image;

constexpr InstrCount kBudget = 100'000'000;

TEST(BackRasTable, SaveLoadErase)
{
    hv::BackRasTable table;
    cpu::SavedRas saved;
    saved.entries.push_back(cpu::RasEntry{0x100, false});
    saved.entries.push_back(cpu::RasEntry{0x200, false});
    table.save(7, saved);
    EXPECT_TRUE(table.contains(7));
    EXPECT_EQ(table.size(), 1u);
    const auto loaded = table.load(7);
    ASSERT_EQ(loaded.entries.size(), 2u);
    EXPECT_EQ(loaded.entries[1].addr, 0x200u);
    EXPECT_TRUE(table.load(99).entries.empty());
    table.erase(7);
    EXPECT_FALSE(table.contains(7));
}

TEST(BackRasTable, BandwidthAccounting)
{
    hv::BackRasTable table;
    cpu::SavedRas saved;
    for (int i = 0; i < 10; ++i)
        saved.entries.push_back(cpu::RasEntry{Addr(i), false});
    table.save(1, saved);
    // 10 entries * 8 bytes + 8 bytes of count.
    EXPECT_EQ(table.bytes_transferred(), 88u);
    table.load(1);
    EXPECT_EQ(table.bytes_transferred(), 176u);
}

TEST(BackRasTable, RestoreReplacesWholeTable)
{
    hv::BackRasTable table;
    table.save(1, cpu::SavedRas{});
    std::map<ThreadId, cpu::SavedRas> fresh;
    fresh[5] = cpu::SavedRas{};
    table.restore(fresh);
    EXPECT_FALSE(table.contains(1));
    EXPECT_TRUE(table.contains(5));
}

/** An I/O-heavy workload used to compare the virtualization modes. */
isa::Image
io_workload()
{
    return user_image([](isa::Assembler& a) {
        a.label("main");
        a.ldi(R1, static_cast<std::int64_t>(k::kUserDataBase + 0x1000));
        for (int i = 0; i < 200; ++i) {
            a.rdtsc(R2);
            a.ldi(R1, 3);
            a.ldi(R2, static_cast<std::int64_t>(k::kUserDataBase + 0x1000));
            emit_syscall(a, k::kSysDiskRead);
        }
        emit_exit(a);
    });
}

TEST(HvModes, ParavirtualIsFasterThanMediated)
{
    // NoRecPV vs NoRec (Figure 5a): disabling PV costs real time.
    auto pv_vm = make_test_vm(io_workload(), {"main"});
    hv::HvOptions pv_options;
    pv_options.mediate_io = false;
    pv_options.manage_backras = false;
    hv::Hypervisor pv(pv_vm.get(), pv_options);
    ASSERT_EQ(pv.run(kBudget), hv::RunResult::kHalted);

    auto med_vm = make_test_vm(io_workload(), {"main"});
    hv::HvOptions med_options;
    med_options.mediate_io = true;
    med_options.manage_backras = false;
    hv::Hypervisor med(med_vm.get(), med_options);
    ASSERT_EQ(med.run(kBudget), hv::RunResult::kHalted);

    // Same completed workload (200 disk reads), more wall time under
    // mediation. Note the instruction counts legitimately differ: the
    // guest's wait loops spin for wall-time, not instruction counts.
    EXPECT_GT(med_vm->cpu().cycles(), pv_vm->cpu().cycles());
}

TEST(HvModes, RecordingCostsMoreThanMediated)
{
    // NoRec vs Rec: recording adds rdtsc traps and log writes.
    auto norec_vm = make_test_vm(io_workload(), {"main"});
    hv::HvOptions norec;
    norec.manage_backras = false;
    hv::Hypervisor plain(norec_vm.get(), norec);
    ASSERT_EQ(plain.run(kBudget), hv::RunResult::kHalted);

    auto rec_vm = make_test_vm(io_workload(), {"main"});
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(kBudget), hv::RunResult::kHalted);

    EXPECT_GT(rec_vm->cpu().cycles(), norec_vm->cpu().cycles());
    EXPECT_GT(recorder.log().size(), 0u);
}

TEST(HvModes, RecNoRasIsCheaperThanRec)
{
    auto rec_vm = make_test_vm(io_workload(), {"main"});
    rnr::Recorder rec(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(rec.run(kBudget), hv::RunResult::kHalted);

    auto noras_vm = make_test_vm(io_workload(), {"main"});
    rnr::RecorderOptions noras_options;
    noras_options.manage_backras = false;
    noras_options.ras_alarms = false;
    noras_options.evict_exits = false;
    rnr::Recorder noras(noras_vm.get(), noras_options);
    ASSERT_EQ(noras.run(kBudget), hv::RunResult::kHalted);

    EXPECT_GE(rec_vm->cpu().cycles(), noras_vm->cpu().cycles());
    EXPECT_GT(rec.overhead().ras, 0u);
    EXPECT_EQ(noras.overhead().ras, 0u);
}

TEST(HvContext, TracksCurrentThreadAcrossSwitches)
{
    auto image = user_image([](isa::Assembler& a) {
        a.label("main");
        for (int i = 0; i < 3; ++i)
            emit_syscall(a, k::kSysYield);
        emit_exit(a);
    });
    auto vm = make_test_vm(image, {"main"});
    hv::Hypervisor hv(vm.get(), hv::HvOptions{});
    EXPECT_EQ(hv.run(kBudget), hv::RunResult::kHalted);
    EXPECT_TRUE(hv.have_current_tid());
    // The machine halts from the idle thread (tid 0).
    EXPECT_EQ(hv.current_tid(), 0u);
    // BackRAS entries were created for both threads at some point.
    EXPECT_GE(hv.stats().context_switches, 6u);
}

TEST(HvContext, ThreadExitRecyclesBackRasEntry)
{
    auto image = user_image([](isa::Assembler& a) {
        a.label("main");
        emit_syscall(a, k::kSysYield);  // force a BackRAS entry to exist
        emit_exit(a);
    });
    auto vm = make_test_vm(image, {"main"});
    hv::Hypervisor hv(vm.get(), hv::HvOptions{});
    EXPECT_EQ(hv.run(kBudget), hv::RunResult::kHalted);
    EXPECT_GE(hv.stats().thread_exits, 1u);
    // The dead thread's entry must be gone (Section 5.2.2); only the
    // idle thread may remain.
    EXPECT_FALSE(hv.backras().contains(1));
}

TEST(HvStats, OverheadAttributionCoversCategories)
{
    auto devices = test::quiet_devices();
    devices.nic_mean_gap = 2'000;
    auto image = user_image([](isa::Assembler& a) {
        a.label("main");
        for (int i = 0; i < 50; ++i) {
            a.rdtsc(R2);
            a.ldi(R1, static_cast<std::int64_t>(k::kUserDataBase + 0x1000));
            emit_syscall(a, k::kSysNicRecv);
            a.ldi(R1, 2);
            a.ldi(R2, static_cast<std::int64_t>(k::kUserDataBase + 0x1000));
            emit_syscall(a, k::kSysDiskRead);
        }
        emit_exit(a);
    });
    auto vm = make_test_vm(image, {"main"}, devices);
    rnr::Recorder recorder(vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(kBudget), hv::RunResult::kHalted);
    const auto& overhead = recorder.overhead();
    EXPECT_GT(overhead.rdtsc, 0u);
    EXPECT_GT(overhead.pio_mmio, 0u);
    EXPECT_GT(overhead.interrupt, 0u);
    EXPECT_GT(overhead.ras, 0u);
    EXPECT_GT(overhead.network, 0u);
}

}  // namespace
}  // namespace rsafe
// Appended: error-path and facade coverage.
#include "core/alarm.h"
#include "hv/introspect.h"

namespace rsafe {
namespace {

TEST(VmErrors, ApiMisuseIsRejected)
{
    hv::VmConfig config;
    config.devices = test::quiet_devices();
    hv::Vm vm(config);
    // User image outside the user segment.
    isa::Assembler bad(0x2000);
    bad.nop();
    EXPECT_THROW(vm.load_user_image(bad.link()), FatalError);
    // Post-finalize mutation.
    auto image = test::user_image([](isa::Assembler& a) {
        a.label("main");
        test::emit_exit(a);
    });
    vm.load_user_image(image);
    vm.add_user_task(image.symbol("main"));
    vm.finalize();
    EXPECT_THROW(vm.finalize(), FatalError);
    EXPECT_THROW(vm.add_user_task(image.symbol("main")), FatalError);
    EXPECT_THROW(vm.load_user_image(image), FatalError);
}

TEST(VmErrors, TooManyTasksRejected)
{
    hv::VmConfig config;
    config.devices = test::quiet_devices();
    hv::Vm vm(config);
    auto image = test::user_image([](isa::Assembler& a) {
        a.label("main");
        test::emit_exit(a);
    });
    vm.load_user_image(image);
    // Slot 0 is the idle thread; 15 user tasks fit, the 16th does not.
    for (int i = 0; i < 15; ++i)
        vm.add_user_task(image.symbol("main"));
    EXPECT_THROW(vm.add_user_task(image.symbol("main")), FatalError);
}

TEST(Introspector, RejectsForeignStackPointer)
{
    mem::PhysMem mem(1 << 20);
    hv::Introspector intro(&mem);
    EXPECT_THROW(intro.tid_of_sp(0x10), PanicError);
}

TEST(AlarmManager, AggregatesAndSummarizes)
{
    core::AlarmManager manager;
    EXPECT_FALSE(manager.attack_detected());
    replay::AlarmAnalysis benign;
    benign.cause = replay::AlarmCause::kImperfectNesting;
    manager.add(benign);
    replay::AlarmAnalysis attack;
    attack.is_attack = true;
    attack.cause = replay::AlarmCause::kRopAttack;
    attack.report = "hijacked!\n";
    manager.add(attack);
    EXPECT_TRUE(manager.attack_detected());
    EXPECT_EQ(manager.attacks().size(), 1u);
    EXPECT_EQ(manager.count(replay::AlarmCause::kImperfectNesting), 1u);
    EXPECT_EQ(manager.count(replay::AlarmCause::kBenignUnderflow), 0u);
    const auto summary = manager.summary();
    EXPECT_NE(summary.find("hijacked!"), std::string::npos);
    EXPECT_NE(summary.find("imperfect-nesting"), std::string::npos);
}

TEST(VmState, HashCoversDiskAndMemory)
{
    hv::VmConfig config;
    config.devices = test::quiet_devices();
    hv::Vm a(config), b(config);
    auto image = test::user_image([](isa::Assembler& as) {
        as.label("main");
        test::emit_exit(as);
    });
    for (auto* vm : {&a, &b}) {
        vm->load_user_image(image);
        vm->add_user_task(image.symbol("main"));
        vm->finalize();
    }
    EXPECT_EQ(a.state_hash(), b.state_hash());
    std::vector<std::uint8_t> block(kDiskBlockSize, 9);
    a.hub().disk().write(0, block.data());
    EXPECT_NE(a.state_hash(), b.state_hash());
}

}  // namespace
}  // namespace rsafe
