/** @file End-to-end tests of the RnR-Safe pipeline (Figure 1): benign
 *  runs resolve cleanly; the mounted kernel ROP is detected, classified,
 *  and fully characterized by the alarm replayer. */

#include <gtest/gtest.h>

#include <algorithm>

#include "attack/attack_mounter.h"
#include "core/framework.h"
#include "core/rop_detector.h"
#include "kernel/layout.h"
#include "rnr/wire.h"
#include "test_util.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

namespace k = rsafe::kernel;

TEST(Framework, BenignRunHasNoAttacks)
{
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 100;
    core::FrameworkConfig config;
    core::RnrSafeFramework framework(workloads::vm_factory(profile),
                                     config);
    auto result = framework.run();
    EXPECT_EQ(result.record_result, hv::RunResult::kHalted);
    EXPECT_EQ(result.cr_outcome, rnr::ReplayOutcome::kFinished);
    EXPECT_FALSE(result.alarms.attack_detected());
    // Deterministic replay really happened.
    EXPECT_EQ(result.cr_vm->state_hash(), result.recorded_vm->state_hash());
}

TEST(Framework, ApacheUnderflowsAreResolvedByTheCr)
{
    auto profile = workloads::benchmark_profile("apache");
    profile.iterations_per_task = 400;
    core::FrameworkConfig config;
    core::RnrSafeFramework framework(workloads::vm_factory(profile),
                                     config);
    auto result = framework.run();
    EXPECT_EQ(result.record_result, hv::RunResult::kHalted);
    // Deep NIC nesting produced alarms, all auto-resolved as underflows.
    EXPECT_GT(result.alarms_logged, 0u);
    EXPECT_EQ(result.underflows_resolved, result.alarms_logged);
    EXPECT_EQ(result.alarm_replays, 0u);
    EXPECT_FALSE(result.alarms.attack_detected());
}

class AttackPipeline : public ::testing::Test {
  protected:
    core::FrameworkResult
    run_attack_pipeline(std::uint64_t delay_iters = 200)
    {
        // The attacker task runs beside a small benign workload.
        auto profile = workloads::benchmark_profile("mysql");
        profile.iterations_per_task = 150;
        profile.num_tasks = 2;

        // Build the attacker against the (deterministic) kernel image.
        const auto kernel = k::build_kernel();
        const Addr atk_code = k::kUserCodeBase + 0x40000;
        const Addr atk_buf = k::kUserDataBase + 15 * 0x10000;
        const auto program = attack::build_attacker_program(
            kernel, atk_code, atk_buf, delay_iters);

        auto factory = workloads::vm_factory(profile, {program.image},
                                             {program.entry});
        core::FrameworkConfig config;
        core::RnrSafeFramework framework(factory, config);
        return framework.run();
    }
};

TEST_F(AttackPipeline, KernelRopIsDetectedAndCharacterized)
{
    auto result = run_attack_pipeline();
    EXPECT_EQ(result.record_result, hv::RunResult::kHalted);
    ASSERT_GT(result.alarms_logged, 0u);
    ASSERT_GT(result.alarm_replays, 0u);
    ASSERT_TRUE(result.alarms.attack_detected());

    const auto attacks = result.alarms.attacks();
    ASSERT_GE(attacks.size(), 1u);
    const auto& attack = *attacks[0];
    // Where: the hijacked return inside the vulnerable function.
    EXPECT_EQ(attack.faulting_function, "k_vulnerable");
    EXPECT_EQ(attack.ret_pc,
              result.recorded_vm->guest_kernel().vulnerable_ret);
    // Who: the attacker task (the last task slot).
    EXPECT_EQ(attack.tid, 3u);
    // What: the gadget chain staged on the corrupted stack.
    EXPECT_FALSE(attack.gadget_chain.empty());
    EXPECT_FALSE(attack.report.empty());
    // The compromised kernel flipped the root flag (the VM was allowed
    // to continue past the alarm).
    EXPECT_EQ(result.recorded_vm->mem().read_raw(k::kKernelRootFlag, 8),
              1u);
}

TEST_F(AttackPipeline, FirstAlarmIsTheHijackedReturn)
{
    auto result = run_attack_pipeline();
    const auto& analyses = result.alarms.analyses();
    ASSERT_FALSE(analyses.empty());
    // The first analyzed alarm is the Figure 10 hijack itself, and it is
    // classified as a real ROP (not any false-positive category).
    EXPECT_TRUE(analyses[0].is_attack);
    EXPECT_EQ(analyses[0].cause, replay::AlarmCause::kRopAttack);
    EXPECT_EQ(analyses[0].actual_target,
              analyses[0].alarm_record.alarm.actual);
}

TEST_F(AttackPipeline, DetectionIsDelayIndependent)
{
    for (std::uint64_t delay : {0ULL, 1000ULL}) {
        auto result = run_attack_pipeline(delay);
        EXPECT_TRUE(result.alarms.attack_detected())
            << "delay=" << delay;
    }
}

}  // namespace
}  // namespace rsafe
// Appended: concurrent pipeline (streamed CR + AR worker pool) A/B
// determinism coverage.
namespace rsafe {
namespace {

/** Run the alarm-heavy attack workload under @p mode / @p workers. */
core::FrameworkResult
run_pipeline_mode(core::PipelineMode mode, std::size_t workers)
{
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 150;
    profile.num_tasks = 2;
    const auto kernel = k::build_kernel();
    const auto program = attack::build_attacker_program(
        kernel, k::kUserCodeBase + 0x40000,
        k::kUserDataBase + 15 * 0x10000, 200);
    auto factory =
        workloads::vm_factory(profile, {program.image}, {program.entry});
    core::FrameworkConfig config;
    config.pipeline = mode;
    config.ar_workers = workers;
    core::RnrSafeFramework framework(factory, config);
    return framework.run();
}

TEST(ConcurrentPipeline, MatchesSerialBitForBit)
{
    auto serial = run_pipeline_mode(core::PipelineMode::kSerial, 1);
    auto conc = run_pipeline_mode(core::PipelineMode::kConcurrent, 3);

    // Outcomes and aggregate counters.
    EXPECT_EQ(conc.record_result, serial.record_result);
    EXPECT_EQ(conc.cr_outcome, serial.cr_outcome);
    EXPECT_EQ(conc.alarms_logged, serial.alarms_logged);
    EXPECT_EQ(conc.underflows_resolved, serial.underflows_resolved);
    EXPECT_EQ(conc.alarm_replays, serial.alarm_replays);
    EXPECT_EQ(conc.alarms.attack_detected(), serial.alarms.attack_detected());

    // The streamed log is byte-identical to the batch log.
    EXPECT_EQ(conc.recorder->log().serialize(),
              serial.recorder->log().serialize());

    // Per-alarm verdicts and audit trails, in alarm order.
    ASSERT_EQ(conc.ar_results.size(), serial.ar_results.size());
    ASSERT_GT(serial.ar_results.size(), 0u);
    for (std::size_t i = 0; i < serial.ar_results.size(); ++i) {
        const auto& s = serial.ar_results[i];
        const auto& c = conc.ar_results[i];
        EXPECT_EQ(c.log_index, s.log_index) << "alarm " << i;
        EXPECT_EQ(c.deep_rerun, s.deep_rerun) << "alarm " << i;
        EXPECT_EQ(c.analysis.cause, s.analysis.cause) << "alarm " << i;
        EXPECT_EQ(c.analysis.is_attack, s.analysis.is_attack)
            << "alarm " << i;
        EXPECT_EQ(c.analysis.gadget_chain, s.analysis.gadget_chain)
            << "alarm " << i;
        EXPECT_EQ(c.analysis.report, s.analysis.report) << "alarm " << i;
        EXPECT_EQ(c.analysis.analysis_cycles, s.analysis.analysis_cycles)
            << "alarm " << i;
    }

    // Final CPU and memory digests of both machines.
    EXPECT_EQ(conc.recorded_vm->state_hash(), serial.recorded_vm->state_hash());
    EXPECT_EQ(conc.cr_vm->state_hash(), serial.cr_vm->state_hash());
    EXPECT_EQ(conc.cr_vm->cpu().icount(), serial.cr_vm->cpu().icount());
    EXPECT_EQ(conc.cr_vm->cpu().cycles(), serial.cr_vm->cpu().cycles());
    EXPECT_EQ(conc.cr_vm->cpu().state().pc, serial.cr_vm->cpu().state().pc);

    // The merged pipeline counters agree entry for entry.
    EXPECT_EQ(conc.pipeline_stats.snapshot(),
              serial.pipeline_stats.snapshot());
}

/** Everything the TB on/off A/B gate compares between two runs. */
struct AbDigest {
    hv::RunResult record_result{};
    rnr::ReplayOutcome cr_outcome{};
    std::uint64_t alarms_logged = 0;
    std::uint64_t underflows_resolved = 0;
    std::uint64_t alarm_replays = 0;
    bool attack = false;
    std::uint64_t rec_hash = 0;
    std::uint64_t cr_hash = 0;
    InstrCount cr_icount = 0;
    Cycles cr_cycles = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    // The recording side: the TB engine retires call/ret inside blocks
    // while the recorder's RAS alarms and eviction exits are armed, so
    // clocks, RAS traffic and the log itself must match the interpreter.
    InstrCount rec_icount = 0;
    Cycles rec_cycles = 0;
    std::uint64_t rec_calls = 0;
    std::uint64_t rec_rets = 0;
    std::uint64_t rec_ras_hits = 0;
    std::uint64_t rec_ras_hits_restored = 0;
    std::uint64_t rec_ras_whitelisted = 0;
    std::uint64_t rec_ras_alarms = 0;
    std::uint64_t rec_ras_evictions = 0;
    std::size_t log_records = 0;
    std::size_t log_alarm_records = 0;
    std::size_t log_evict_records = 0;
    std::uint64_t log_fnv = 0;

    bool operator==(const AbDigest&) const = default;
};

AbDigest
run_ab(const std::function<std::unique_ptr<hv::Vm>()>& factory,
       core::PipelineMode mode, bool tb)
{
    core::FrameworkConfig config;
    config.pipeline = mode;
    config.ar_workers = mode == core::PipelineMode::kConcurrent ? 3 : 1;
    core::RnrSafeFramework framework(
        tb ? factory : test::interpreter_only(factory), config);
    auto result = framework.run();

    AbDigest d;
    d.record_result = result.record_result;
    d.cr_outcome = result.cr_outcome;
    d.alarms_logged = result.alarms_logged;
    d.underflows_resolved = result.underflows_resolved;
    d.alarm_replays = result.alarm_replays;
    d.attack = result.alarms.attack_detected();
    d.rec_hash = result.recorded_vm->state_hash();
    d.cr_hash = result.cr_vm->state_hash();
    d.cr_icount = result.cr_vm->cpu().icount();
    d.cr_cycles = result.cr_vm->cpu().cycles();
    d.counters = result.pipeline_stats.snapshot();

    const cpu::Cpu& rec_cpu = result.recorded_vm->cpu();
    d.rec_icount = rec_cpu.icount();
    d.rec_cycles = rec_cpu.cycles();
    const cpu::CpuStats& st = rec_cpu.stats();
    d.rec_calls = st.calls;
    d.rec_rets = st.rets;
    d.rec_ras_hits = st.ras_hits;
    d.rec_ras_hits_restored = st.ras_hits_restored;
    d.rec_ras_whitelisted = st.ras_whitelisted;
    d.rec_ras_alarms = st.ras_alarms;
    d.rec_ras_evictions = st.ras_evictions;
    const rnr::InputLog& log = result.recorder->log();
    d.log_records = log.size();
    d.log_alarm_records = log.find_all(rnr::RecordType::kRasAlarm).size();
    d.log_evict_records = log.find_all(rnr::RecordType::kRasEvict).size();
    const std::vector<std::uint8_t> bytes = log.serialize();
    d.log_fnv = rnr::wire::fnv1a64(bytes.data(), bytes.size());
    return d;
}

TEST(Framework, TbEngineABDeterminismAcrossWorkloads)
{
    // The TB on/off A/B gate: the translation-block engine must be
    // architecturally invisible. For each Table 3 workload the full
    // record→CR pipeline runs with the engine on and off and must agree
    // on outcomes, digests, clocks, and the counters-only stat snapshot.
    for (const auto& name :
         {"apache", "fileio", "make", "mysql", "radiosity"}) {
        auto profile = workloads::benchmark_profile(name);
        profile.iterations_per_task = 100;
        const auto factory = workloads::vm_factory(profile);
        const auto with_tb =
            run_ab(factory, core::PipelineMode::kSerial, true);
        const auto without_tb =
            run_ab(factory, core::PipelineMode::kSerial, false);
        EXPECT_EQ(with_tb, without_tb) << name;
        if (std::string(name) == "apache") {
            // apache overflows the RAS and mispredicts during recording,
            // so the TB's evict and alarm bails are both exercised.
            EXPECT_EQ(with_tb.log_evict_records, 3u);
            EXPECT_EQ(with_tb.log_alarm_records, 3u);
        }
    }
}

TEST(Framework, TbEngineABDeterminismOnAttackMix)
{
    // Same gate on the shared attack mix (alarm replays included), in
    // both pipeline modes: TB on/off × serial/concurrent all agree.
    workloads::AttackMixOptions options;
    options.iterations_per_task = 120;
    const auto mix = workloads::attack_mix(options);

    const auto serial_tb =
        run_ab(mix.factory, core::PipelineMode::kSerial, true);
    EXPECT_TRUE(serial_tb.attack) << "attack mix must still detect";
    EXPECT_EQ(serial_tb.log_alarm_records, 4u);  // the ROP + 3 gadget rets
    const auto serial_interp =
        run_ab(mix.factory, core::PipelineMode::kSerial, false);
    EXPECT_EQ(serial_tb, serial_interp);

    const auto conc_tb =
        run_ab(mix.factory, core::PipelineMode::kConcurrent, true);
    EXPECT_EQ(serial_tb, conc_tb);
    const auto conc_interp =
        run_ab(mix.factory, core::PipelineMode::kConcurrent, false);
    EXPECT_EQ(serial_tb, conc_interp);
}

TEST(Framework, TbEngineABDeterminismOnEightAttackerMix)
{
    // The rop-storm shape: eight attackers raise 32 RAS alarms during
    // recording, each a TB ret bail into exec_one's alarm path.
    workloads::AttackMixOptions options;
    options.attackers = 8;
    const auto mix = workloads::attack_mix(options);
    const auto with_tb = run_ab(mix.factory, core::PipelineMode::kSerial, true);
    EXPECT_EQ(with_tb.log_alarm_records, 32u);
    EXPECT_EQ(with_tb,
              run_ab(mix.factory, core::PipelineMode::kSerial, false));
}

TEST(ConcurrentPipeline, BenignStreamingRunMatchesSerial)
{
    // Streaming-heavy benign workload (no ARs): the on-the-fly CR must
    // still converge to the recorded machine exactly.
    auto profile = workloads::benchmark_profile("apache");
    profile.iterations_per_task = 300;
    for (auto mode :
         {core::PipelineMode::kSerial, core::PipelineMode::kConcurrent}) {
        core::FrameworkConfig config;
        config.pipeline = mode;
        core::RnrSafeFramework framework(workloads::vm_factory(profile),
                                         config);
        auto result = framework.run();
        EXPECT_EQ(result.cr_outcome, rnr::ReplayOutcome::kFinished);
        EXPECT_FALSE(result.alarms.attack_detected());
        EXPECT_EQ(result.cr_vm->state_hash(),
                  result.recorded_vm->state_hash());
    }
}

TEST(ConcurrentPipeline, TracksReplayLagAndChannelTraffic)
{
    auto result = run_pipeline_mode(core::PipelineMode::kConcurrent, 2);
    // Lag was sampled at every positional boundary.
    EXPECT_GT(result.replay_lag.samples, 0u);
    EXPECT_GE(result.replay_lag.max_lag, 1u);
    EXPECT_LE(result.replay_lag.mean(),
              static_cast<double>(result.replay_lag.max_lag));
    // Every record the recorder appended flowed through the channel.
    EXPECT_EQ(result.channel_stats.records_pushed,
              result.recorder->log().size());
    EXPECT_GT(result.channel_stats.chunks_published, 0u);
    EXPECT_EQ(result.channel_stats.records_dropped, 0u);
}

TEST(ConcurrentPipeline, LagSeries)
{
    auto result = run_pipeline_mode(core::PipelineMode::kConcurrent, 2);
    // The bounded ring retained a lag time series: non-empty, bounded by
    // its capacity, in icount order, and consistent with the aggregates.
    const auto series = result.replay_lag.series();
    ASSERT_FALSE(series.empty());
    EXPECT_LE(series.size(), rnr::ReplayLag::kRingCapacity);
    EXPECT_LE(series.size(), result.replay_lag.samples);
    std::uint64_t series_max = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (i > 0) {
            EXPECT_LE(series[i - 1].icount, series[i].icount);
        }
        EXPECT_LE(series[i].lag, result.replay_lag.max_lag);
        series_max = std::max<std::uint64_t>(series_max, series[i].lag);
    }
    EXPECT_GT(series_max, 0u);
    // finalize() mirrors the series into the (snapshot-excluded)
    // pipeline gauge for the metrics exporter.
    const auto& gauges = result.pipeline_stats.gauges();
    ASSERT_NE(gauges.count("cr.replay_lag"), 0u);
    EXPECT_EQ(gauges.at("cr.replay_lag").observations(), series.size());
}

TEST(ConcurrentPipeline, WorkerCountDoesNotChangeResults)
{
    auto one = run_pipeline_mode(core::PipelineMode::kConcurrent, 1);
    auto four = run_pipeline_mode(core::PipelineMode::kConcurrent, 4);
    ASSERT_EQ(one.ar_results.size(), four.ar_results.size());
    for (std::size_t i = 0; i < one.ar_results.size(); ++i) {
        EXPECT_EQ(one.ar_results[i].analysis.cause,
                  four.ar_results[i].analysis.cause);
        EXPECT_EQ(one.ar_results[i].analysis.report,
                  four.ar_results[i].analysis.report);
    }
    EXPECT_EQ(one.pipeline_stats.snapshot(), four.pipeline_stats.snapshot());
}

TEST(ConcurrentPipeline, ThrowingAlarmReplayIsRethrownInBothModes)
{
    // The 3rd VM build is the first AR VM (the recorded and CR VMs come
    // first). Its failure must reach the caller as the original
    // exception: on the calling thread in kSerial, through the worker
    // pool's drain() in kConcurrent.
    workloads::AttackMixOptions options;
    options.iterations_per_task = 120;
    const auto mix = workloads::attack_mix(options);
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;
    config.ar_workers = 2;
    ASSERT_GE(core::RnrSafeFramework(mix.factory, config).run()
                  .ar_results.size(),
              2u)
        << "the concurrent arm must exercise the pool";
    for (const auto mode :
         {core::PipelineMode::kSerial, core::PipelineMode::kConcurrent}) {
        config.pipeline = mode;
        core::RnrSafeFramework framework(
            test::failing_factory(mix.factory, 3), config);
        EXPECT_THROW(framework.run(), FatalError)
            << "mode " << static_cast<int>(mode);
    }
}

}  // namespace
}  // namespace rsafe
// Appended: risk-averse mode and pipeline-robustness coverage.
namespace rsafe {
namespace {

TEST(FrameworkModes, StopOnAlarmHaltsBeforeCompromise)
{
    // "Depending on the risk tolerance of the workload, the recorded VM
    // may be stopped until the alarm is analyzed" (Section 3).
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 150;
    profile.num_tasks = 2;
    const auto kernel = k::build_kernel();
    const auto program = attack::build_attacker_program(
        kernel, k::kUserCodeBase + 0x40000,
        k::kUserDataBase + 15 * 0x10000, 200);
    auto factory =
        workloads::vm_factory(profile, {program.image}, {program.entry});

    auto vm = factory();
    rnr::RecorderOptions options;
    options.stop_on_alarm = true;
    rnr::Recorder recorder(vm.get(), options);
    const auto result = recorder.run(~static_cast<InstrCount>(0));
    ASSERT_EQ(result, hv::RunResult::kInstrLimit);
    ASSERT_TRUE(recorder.alarm_stop_requested());
    // Frozen at the alarm: the gadget chain never ran.
    EXPECT_EQ(vm->mem().read_raw(k::kKernelRootFlag, 8), 0u);

    // The partial log still replays deterministically up to the stop.
    auto rep_vm = factory();
    rnr::Replayer replayer(rep_vm.get(), &recorder.log(), 0,
                           rnr::ReplayOptions{});
    EXPECT_EQ(replayer.run(), rnr::ReplayOutcome::kLogExhausted);
}

TEST(FrameworkModes, BasicHardwareFloodsAlarmsButMissesNothing)
{
    // The Section 4.2 basic design: every alarm source reaches the
    // replayers, including the real attack — no false negatives.
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 250;
    profile.num_tasks = 2;
    const auto kernel = k::build_kernel();
    const auto program = attack::build_attacker_program(
        kernel, k::kUserCodeBase + 0x40000,
        k::kUserDataBase + 15 * 0x10000, 100);
    auto factory =
        workloads::vm_factory(profile, {program.image}, {program.entry});

    auto full_vm = factory();
    rnr::Recorder full(full_vm.get(),
                       core::rop_recorder_options(
                           core::RopHardwareLevel::kFull));
    ASSERT_EQ(full.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    auto basic_vm = factory();
    rnr::Recorder basic(basic_vm.get(),
                        core::rop_recorder_options(
                            core::RopHardwareLevel::kBasic));
    ASSERT_EQ(basic.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    const auto full_alarms =
        full.log().find_all(rnr::RecordType::kRasAlarm).size();
    const auto basic_alarms =
        basic.log().find_all(rnr::RecordType::kRasAlarm).size();
    // The full hardware cuts the alarm count dramatically...
    EXPECT_GT(basic_alarms, 3 * full_alarms);
    // ...but both catch the attack (no false negatives, Section 3.1).
    EXPECT_GE(full_alarms, 1u);
    EXPECT_GE(basic_alarms, 1u);
    bool full_sees_hijack = false, basic_sees_hijack = false;
    for (const auto idx :
         full.log().find_all(rnr::RecordType::kRasAlarm)) {
        full_sees_hijack |= full.log().at(idx).alarm.ret_pc ==
                            kernel.vulnerable_ret;
    }
    for (const auto idx :
         basic.log().find_all(rnr::RecordType::kRasAlarm)) {
        basic_sees_hijack |= basic.log().at(idx).alarm.ret_pc ==
                             kernel.vulnerable_ret;
    }
    EXPECT_TRUE(full_sees_hijack);
    EXPECT_TRUE(basic_sees_hijack);
}

}  // namespace
}  // namespace rsafe
