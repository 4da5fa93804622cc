#include "workload.h"

#include <algorithm>
#include <stdexcept>

#include "replay/alarm_replayer.h"
#include "rnr/log_source.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace perfbench {

using rsafe::core::FrameworkResult;
using rsafe::core::PipelineMode;

namespace {

/**
 * Per-task iterations of bench_profile("mysql") (bench/bench_common.cc),
 * copied so that the workload stays fixed while the repository's figure
 * benches change.
 */
constexpr std::uint64_t kBenchIterationsMysql = 2200;

/** Programs in a seeded workload's rotation. */
constexpr std::size_t kProgramsPerSeed = 4;

/** rop-storm: attackers, and the RAS alarms their ROPs raise. */
constexpr std::size_t kAttackers = 8;
constexpr std::size_t kRopAlarms = 32;

/** Per-task iterations of the short recording that sizes a program. */
constexpr std::uint64_t kProbeIterations = 200;

std::string
verdict_string(const rsafe::replay::AlarmAnalysis& a, std::size_t index)
{
    return std::to_string(index) + ":" +
           rsafe::replay::alarm_cause_name(a.cause) + ":" +
           (a.is_attack ? "attack" : "benign") + ":" +
           std::to_string(a.ret_pc) + ":" + std::to_string(a.tid);
}

/** Profile @p name with its program and device seeds offset by @p seed,
 *  so seed 0 is the canonical program. */
rsafe::workloads::WorkloadProfile
seeded_profile(const std::string& name, std::uint64_t iterations,
               std::uint64_t seed)
{
    auto profile = rsafe::workloads::benchmark_profile(name);
    profile.iterations_per_task = iterations;
    profile.seed += seed;
    profile.devices.seed = profile.seed * 31 + 7;
    return profile;
}

/** Simulated cycles of a short recording of @p profile. */
double
probe_cycles(rsafe::workloads::WorkloadProfile profile)
{
    profile.iterations_per_task = kProbeIterations;
    auto vm = rsafe::workloads::make_vm(profile);
    rsafe::rnr::Recorder recorder(vm.get(), rsafe::rnr::RecorderOptions());
    recorder.run(~rsafe::InstrCount{0});
    return double(vm->cpu().cycles());
}

/**
 * Profile @p name for program seed @p seed, sized to the simulated time
 * of the canonical program at @p iterations per task. A seed changes the
 * generated program's event mix, which changes its cost per iteration by
 * up to 2x; scaling the iteration count by the ratio of two short probe
 * recordings keeps every program the same length in guest time (and so
 * at the same number of checkpoints), leaving seed 0 exactly canonical.
 */
rsafe::workloads::WorkloadProfile
sized_profile(const std::string& name, std::uint64_t iterations,
              std::uint64_t seed)
{
    auto profile = seeded_profile(name, iterations, seed);
    if (seed != 0) {
        const double scale = probe_cycles(seeded_profile(name, 0, 0)) /
                             probe_cycles(profile);
        profile.iterations_per_task = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(double(iterations) * scale + 0.5));
    }
    return profile;
}

}  // namespace

std::string
Fingerprint::diff(const Fingerprint& o, bool with_snapshot) const
{
    if (verdicts != o.verdicts)
        return "verdicts";
    if (cr_state_hash != o.cr_state_hash)
        return "cr state_hash";
    if (with_snapshot && snapshot != o.snapshot)
        return "pipeline_stats snapshot";
    if (record_icount != o.record_icount)
        return "record icount";
    if (record_cycles != o.record_cycles)
        return "record cycles";
    if (cr_icount != o.cr_icount)
        return "cr icount";
    if (cr_cycles != o.cr_cycles)
        return "cr cycles";
    if (log_records != o.log_records)
        return "log record count";
    return "";
}

Fingerprint
fingerprint(const FrameworkResult& result)
{
    Fingerprint fp;
    const auto& analyses = result.alarms.analyses();
    for (std::size_t i = 0; i < analyses.size(); ++i)
        fp.verdicts.push_back(verdict_string(
            analyses[i],
            i < result.ar_results.size() ? result.ar_results[i].log_index
                                         : ~std::size_t{0}));
    fp.cr_state_hash = result.cr_vm->state_hash();
    fp.snapshot = result.pipeline_stats.snapshot();
    fp.record_icount = result.recorded_vm->cpu().icount();
    fp.record_cycles = result.recorded_vm->cpu().cycles();
    fp.cr_icount = result.cr_vm->cpu().icount();
    fp.cr_cycles = result.cr_vm->cpu().cycles();
    fp.log_records = result.recorder->log().size();
    return fp;
}

const std::vector<std::string>&
Workload::names()
{
    static const std::vector<std::string> kNames = {
        "rop-storm", "oltp-steady"};
    return kNames;
}

std::unique_ptr<Workload>
Workload::create(const std::string& name, std::uint64_t seed)
{
    std::unique_ptr<Workload> w(new Workload());
    w->name_ = name;
    w->seed_ = seed;
    std::size_t programs = kProgramsPerSeed;
    if (name == "rop-storm") {
        programs = 1;  // attack_mix() takes no seed: one fixed machine
    } else if (name == "oltp-steady") {
        w->seeded_ = true;
    } else {
        return nullptr;
    }
    for (std::size_t p = 0; p < programs; ++p) {
        Program program;
        program.seed = seed * kProgramsPerSeed + p;
        w->programs_.push_back(std::move(program));
    }
    return w;
}

void
Workload::prepare(std::size_t p)
{
    Program& program = programs_.at(p);
    if (program.factory)
        return;
    rsafe::core::VmFactory base;
    if (name_ == "rop-storm") {
        rsafe::workloads::AttackMixOptions options;
        options.attackers = kAttackers;
        auto mix = rsafe::workloads::attack_mix(options);
        base = std::move(mix.factory);
        program.vulnerable_ret = mix.vulnerable_ret;
    } else {
        base = rsafe::workloads::vm_factory(sized_profile(
            "mysql", 10 * kBenchIterationsMysql, program.seed));
    }
    // Count every VmFactory() call the pipeline makes.
    auto builds = builds_;
    program.factory = [base = std::move(base), builds] {
        builds->fetch_add(1, std::memory_order_relaxed);
        return base();
    };
}

rsafe::core::FrameworkConfig
Workload::config(PipelineMode mode) const
{
    rsafe::core::FrameworkConfig config;
    config.pipeline = mode;
    config.ar_workers = kArWorkers;
    return config;
}

FrameworkResult
Workload::run(std::size_t p, PipelineMode mode)
{
    rsafe::core::RnrSafeFramework framework(programs_.at(p).factory,
                                            config(mode));
    return framework.run();
}

std::unique_ptr<rsafe::hv::Vm>
Workload::build_vm(std::size_t p, Ledger* ledger)
{
    const Ledger::Span span = ledger->span("hv.vm_build");
    return programs_.at(p).factory();
}

FrameworkResult
Workload::compose(std::size_t p, Ledger* ledger)
{
    namespace rnr = rsafe::rnr;
    namespace replay = rsafe::replay;
    const Ledger::Span root = ledger->span("run");
    const rsafe::core::FrameworkConfig cfg = config(PipelineMode::kSerial);
    FrameworkResult result;

    // Record.
    result.recorded_vm = build_vm(p, ledger);
    {
        const Ledger::Span span = ledger->span("rnr.record");
        result.recorder = std::make_unique<rnr::Recorder>(
            result.recorded_vm.get(), cfg.recorder);
        result.record_result = result.recorder->run(cfg.max_instructions);
    }
    const rnr::InputLog* log = &result.recorder->log();
    result.alarms_logged =
        log->find_all(rnr::RecordType::kRasAlarm).size() +
        log->find_all(rnr::RecordType::kDetectorAlarm).size();

    // Checkpointing replay: the constructor takes the full initial
    // checkpoint, run() replays and takes the incremental ones.
    result.cr_vm = build_vm(p, ledger);
    {
        const Ledger::Span span = ledger->span("replay.ckpt_initial");
        result.cr = std::make_unique<replay::CheckpointReplayer>(
            result.cr_vm.get(), log, cfg.cr);
    }
    {
        const Ledger::Span span = ledger->span("replay.cr_run");
        result.cr_outcome = result.cr->run();
    }
    result.underflows_resolved = result.cr->underflows_resolved();
    result.replay_lag = result.cr->lag();

    // Alarm replays, as ArStage::analyze makes them: build a VM, restore
    // the preceding checkpoint (AlarmReplayer's constructor), analyze,
    // and rerun with user call/ret traps when the first pass asks for it.
    std::vector<rsafe::core::AlarmReplayResult> ar_results;
    rnr::InputLogSource source(log);
    for (const replay::PendingAlarm& pending : result.cr->pending_alarms()) {
        if (!pending.checkpoint)
            throw std::runtime_error("alarm without a checkpoint");
        const Ledger::Span alarm_span = ledger->span("replay.ar_alarm");
        rsafe::core::AlarmReplayResult ar;
        ar.log_index = pending.log_index;
        rnr::ReplayOptions options = cfg.cr.replay;
        options.trap_kernel_call_ret = true;
        for (int pass = 0; pass < 2; ++pass) {
            std::unique_ptr<rsafe::hv::Vm> vm = build_vm(p, ledger);
            std::unique_ptr<replay::AlarmReplayer> replayer;
            {
                const Ledger::Span span = ledger->span("replay.ar_restore");
                replayer = std::make_unique<replay::AlarmReplayer>(
                    vm.get(), &source, *pending.checkpoint, options);
            }
            {
                const Ledger::Span span = ledger->span("replay.ar_replay");
                ar.analysis = replayer->analyze(pending.log_index);
            }
            if (ar.analysis.cause !=
                replay::AlarmCause::kNeedsDeeperAnalysis)
                break;
            options.trap_user_call_ret = true;
            ar.deep_rerun = true;
        }
        ar_results.push_back(std::move(ar));
    }
    {
        const Ledger::Span span = ledger->span("core.finalize");
        rsafe::core::finalize_result(&result, std::move(ar_results));
    }
    return result;
}

std::string
Workload::check_truth(std::size_t p, const FrameworkResult& r) const
{
    if (r.record_result != rsafe::hv::RunResult::kHalted)
        return "recording did not halt";
    if (r.cr_outcome != rsafe::rnr::ReplayOutcome::kFinished)
        return "checkpointing replay did not finish";
    if (name_ == "rop-storm") {
        // Every alarm is a real kernel ROP; each attacker's first one is
        // the hijacked return in k_vulnerable, the rest land on gadgets.
        const auto& analyses = r.alarms.analyses();
        if (r.alarms_logged != kRopAlarms || analyses.size() != kRopAlarms)
            return "expected " + std::to_string(kRopAlarms) +
                   " alarms, got " + std::to_string(r.alarms_logged);
        std::size_t hijacks = 0;
        for (const auto& a : analyses) {
            if (!a.is_attack)
                return "an alarm was not classified as an attack";
            hijacks += a.ret_pc == programs_.at(p).vulnerable_ret ? 1 : 0;
        }
        if (hijacks != kAttackers)
            return "expected " + std::to_string(kAttackers) +
                   " hijacks at vulnerable_ret, got " +
                   std::to_string(hijacks);
    } else if (r.alarms_logged != 0 || r.alarm_replays != 0) {
        return "oltp-steady logged alarms";
    }
    return "";
}

}  // namespace perfbench
