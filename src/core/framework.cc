#include "core/framework.h"

#include <algorithm>
#include <string>

#include "common/log.h"
#include "cpu/tb_engine.h"
#include "fleet/work_pool.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "rnr/log_source.h"

namespace rsafe::core {

namespace {

/**
 * Solo-mode health plane: the same monitor / flight recorder /
 * telemetry endpoint the fleet wires per tenant, watching the one
 * pipeline as a tenant named "pipeline". Declared after the stage on
 * run()'s stack so an unwinding exception stops the monitor before the
 * stage (its sampler target) is destroyed.
 */
struct HealthPlane {
    bool on = false;
    obs::HealthProbe probe;
    obs::FlightRecorder flight;
    std::unique_ptr<obs::HealthMonitor> monitor;
    std::unique_ptr<obs::TelemetryServer> telemetry;

    void begin(const FrameworkConfig& config, SessionStage* stage)
    {
        on = obs::health_enabled(config.health);
        if (!on)
            return;
        stage->set_health_probe(&probe);
        monitor = std::make_unique<obs::HealthMonitor>(config.health);
        // No pool while the session runs; starvation stays zero.
        monitor->add_tenant("pipeline",
                            [stage] { return stage->sample_health(); });
        obs::record_transitions(monitor.get(), &flight);
        monitor->start();
        telemetry = std::make_unique<obs::TelemetryServer>(
            config.telemetry,
            obs::TelemetryProviders{
                [this] { return monitor->metrics_prometheus(); },
                [this] { return monitor->healthz_json(); },
                [this] { return flight.latest(); },
            });
        telemetry->start();
    }

    /** Stop, dump, and fold the outputs into @p result. */
    void finish(FrameworkResult* result)
    {
        if (!on)
            return;
        for (const AlarmReplayResult& ar : result->ar_results) {
            if (ar.analysis.is_attack) {
                flight.record(obs::FlightEntryKind::kVerdict, "pipeline",
                              "attack", ar.analysis.analysis_cycles);
                flight.dump("attack-verdict:pipeline");
                break;
            }
        }
        monitor->stop();
        if (flight.dumps() == 0)
            flight.dump("run-complete");
        telemetry->stop();
        // Gauges only: the deterministic counter snapshot is untouched.
        monitor->export_metrics(&result->pipeline_stats);
        result->healthz = monitor->healthz_json();
        result->health_events = monitor->events();
        result->flight_box = flight.latest();
    }
};

/**
 * Replay every pending alarm on @p workers threads and return the
 * results in alarm order. One worker runs them in order on the calling
 * thread — the serial reference the A/B gates compare against. More
 * run as jobs of a one-tenant WorkStealingPool, each into its own
 * registry; the registries merge into @p stats_out in alarm order
 * after drain(), which rethrows the first job's exception, if any.
 */
std::vector<AlarmReplayResult>
replay_alarms(const ArStage& stage,
              const std::vector<replay::PendingAlarm>& pending,
              const rnr::InputLog* log, std::size_t workers,
              obs::HealthProbe* probe, stats::StatRegistry* stats_out)
{
    std::vector<AlarmReplayResult> results(pending.size());
    const auto replay_one = [&](std::size_t i, stats::StatRegistry* stats) {
        results[i] = stage.analyze(pending[i], log, stats);
        if (probe != nullptr)
            probe->note_verdict(results[i].analysis.analysis_cycles);
    };
    workers = std::min(workers, pending.size());
    if (workers <= 1) {
        for (std::size_t i = 0; i < pending.size(); ++i)
            replay_one(i, stats_out);
        return results;
    }

    obs::ScopedSpan span("ar.pool", "ar");
    std::vector<stats::StatRegistry> job_stats(pending.size());
    fleet::WorkStealingPool pool({/*workers=*/workers,
                                  /*tenant_inflight_cap=*/workers});
    const std::size_t tenant = pool.register_tenant("pipeline");
    for (std::size_t i = 0; i < pending.size(); ++i)
        pool.submit(tenant, [&, i] { replay_one(i, &job_stats[i]); });
    pool.drain();
    for (const auto& js : job_stats)
        stats_out->merge(js);
    return results;
}

}  // namespace

RnrSafeFramework::RnrSafeFramework(VmFactory factory, FrameworkConfig config)
    : factory_(std::move(factory)), config_(std::move(config))
{
    if (!factory_)
        fatal("RnrSafeFramework: null VM factory");
}

SessionOptions
session_options(const FrameworkConfig& config, std::string name)
{
    SessionOptions options;
    options.recorder = config.recorder;
    options.cr = config.cr;
    options.max_instructions = config.max_instructions;
    options.channel = config.channel;
    options.streamed = config.pipeline == PipelineMode::kConcurrent;
    options.name = std::move(name);
    return options;
}

void
adopt_session(FrameworkResult* result, SessionStage* stage,
              const SessionResult& session, const FrameworkConfig& config)
{
    result->record_result = session.record_result;
    result->cr_outcome = session.cr_outcome;
    result->alarms_logged = session.alarms_logged;
    result->channel_stats = session.channel_stats;
    result->underflows_resolved = stage->cr()->underflows_resolved();
    result->replay_lag = stage->cr()->lag();
    if (stage->active_detectors() != nullptr)
        result->detectors = config.detectors;
    result->recorded_vm = stage->release_recorded_vm();
    result->recorder = stage->release_recorder();
    result->cr_vm = stage->release_cr_vm();
    result->cr = stage->release_cr();
}

void
finalize_result(FrameworkResult* result,
                std::vector<AlarmReplayResult> ar_results)
{
    // Fold AR outputs back in alarm order: identical between the serial
    // pipeline and any worker-pool schedule.
    for (auto& ar : ar_results) {
        result->alarm_replays += ar.deep_rerun ? 2 : 1;
        result->alarms.add(ar.analysis);
    }
    result->ar_results = std::move(ar_results);

    // Pipeline-wide counters. Only values that are bit-identical across
    // pipeline modes belong here (the determinism A/B test compares the
    // whole snapshot); lag and channel traffic stay in their own fields.
    // Replay-only runs (replay_wire) have no recording stage.
    auto& stats = result->pipeline_stats;
    if (result->recorded_vm && result->recorder) {
        stats.counter("record.instructions")
            .inc(result->recorded_vm->cpu().icount());
        stats.counter("record.log_records")
            .inc(result->recorder->log().size());
        stats.counter("record.log_bytes")
            .inc(result->recorder->log().total_bytes());
    }
    stats.counter("record.alarms_logged").inc(result->alarms_logged);

    // Per-detector hardware-alarm counts, scanned from whichever log this
    // run replayed. Counts are a pure function of the log, so they stay
    // bit-identical across pipeline modes.
    const rnr::InputLog* scan_log = nullptr;
    if (result->recorder)
        scan_log = &result->recorder->log();
    else if (result->shipped_log)
        scan_log = result->shipped_log.get();
    if (result->detectors && scan_log != nullptr) {
        for (const std::size_t index :
             scan_log->find_all(rnr::RecordType::kDetectorAlarm)) {
            const auto id =
                static_cast<DetectorId>(scan_log->at(index).value);
            const Detector* detector = result->detectors->find(id);
            const char* name = detector != nullptr ? detector->name()
                                                   : "unknown";
            stats.counter(std::string("detector.") + name + ".alarms")
                .inc();
        }
    }
    stats.counter("cr.instructions").inc(result->cr_vm->cpu().icount());
    stats.counter("cr.checkpoints").inc(result->cr->checkpoints_taken());
    stats.counter("cr.underflows_resolved").inc(result->underflows_resolved);
    stats.counter("cr.single_steps").inc(result->cr->single_steps());

    // The lag time series rides in a gauge: gauges (like histograms) are
    // excluded from snapshot(), so the scheduling-dependent series never
    // perturbs the bit-for-bit pipeline determinism comparison.
    auto& lag_gauge = stats.gauge("cr.replay_lag");
    for (const auto& sample : result->replay_lag.series())
        lag_gauge.set(sample.icount, sample.lag);

    // Translation-block engine telemetry, per pipeline stage. These also
    // ride in gauges/histograms: an RSAFE_NO_TB A/B run must produce an
    // identical counter snapshot, and TB event counts are zero with the
    // engine disabled.
    const auto export_tb = [&stats](const std::string& prefix,
                                    const cpu::Cpu& cpu) {
        const cpu::TbEngine& tb = cpu.tb_engine();
        const cpu::TbEngineStats& s = tb.stats();
        stats.gauge(prefix + ".translated").set(0, s.translated);
        stats.gauge(prefix + ".chain_hits").set(0, s.chain_hits);
        stats.gauge(prefix + ".chain_misses").set(0, s.chain_misses);
        stats.gauge(prefix + ".invalidations").set(0, s.invalidations);
        stats.gauge(prefix + ".flushes").set(0, s.flushes);
        stats.gauge(prefix + ".exec_blocks").set(0, s.exec_blocks);
        auto& hist = stats.histogram(prefix + ".block_len",
                                     cpu::TbEngine::kMaxBlockInstrs, 16);
        if (const Status st = hist.merge(tb.block_length_hist()); !st.ok())
            fatal("tb block-length histogram geometry mismatch");
    };
    if (result->recorded_vm)
        export_tb("record.tb", result->recorded_vm->cpu());
    export_tb("cr.tb", result->cr_vm->cpu());

    // Checkpoint-storage telemetry. Gauges again: stored bytes and
    // compressed-page counts flip with RSAFE_NO_CKPT_COMPRESS (and dedup
    // config), and the kill-switch A/B gate compares counter snapshots.
    {
        const replay::CheckpointStoreStats cs =
            result->cr->checkpoints().stats();
        stats.gauge("ckpt.bytes_raw").set(0, cs.bytes_raw);
        stats.gauge("ckpt.bytes_stored").set(0, cs.bytes_stored);
        stats.gauge("ckpt.dedup_hits").set(0, cs.dedup_hits);
        stats.gauge("ckpt.compressed_pages").set(0, cs.compressed_pages);
        stats.gauge("ckpt.live_bytes").set(0, cs.live_bytes);
        stats.gauge("ckpt.live_pages").set(0, cs.live_pages);
        stats.gauge("ckpt.budget_evictions").set(0, cs.budget_evictions);
        stats.gauge("ckpt.count_evictions").set(0, cs.count_evictions);
    }
    if (const replay::ckpt::CkptWriteback* wb = result->cr->writeback()) {
        // Writeback traffic is scheduling noise by construction (a
        // background thread racing the CR), so it could never be a
        // counter. lag() is the headline gauge: sealed checkpoints not
        // yet serialized + delivered.
        const replay::ckpt::WritebackStats ws = wb->stats();
        stats.gauge("ckpt.writeback_lag").set(0, wb->lag());
        stats.gauge("ckpt.writeback_submitted").set(0, ws.submitted);
        stats.gauge("ckpt.writeback_written").set(0, ws.written);
        stats.gauge("ckpt.writeback_bytes").set(0, ws.bytes_written);
        stats.gauge("ckpt.writeback_dropped").set(0, ws.dropped);
        stats.gauge("ckpt.writeback_producer_waits")
            .set(0, ws.producer_waits);
        stats.gauge("ckpt.writeback_max_queued").set(0, ws.max_queued);
    }
}

FrameworkResult
RnrSafeFramework::replay_wire(const std::vector<std::uint8_t>& bytes)
{
    FrameworkResult result;
    auto& tracer = obs::Tracer::instance();
    if (tracer.enabled())
        tracer.attach_thread("pipeline");
    obs::ScopedSpan pipeline_span("pipeline.replay_wire", "pipeline");

    // Deserialize tolerantly: a damaged image yields its longest intact
    // record prefix plus a forensic report of what was lost.
    result.shipped_log = std::make_unique<rnr::InputLog>();
    result.log_integrity =
        rnr::InputLog::deserialize_tolerant(bytes, result.shipped_log.get());
    const rnr::InputLog& log = *result.shipped_log;
    result.alarms_logged =
        log.find_all(rnr::RecordType::kRasAlarm).size() +
        log.find_all(rnr::RecordType::kDetectorAlarm).size();

    // No recording stage here, so there is nothing to arm — but the
    // shipped log may carry kDetectorAlarm records, and the configured
    // detector set supplies their classifiers.
    const DetectorSet* detectors = active_detector_set(config_.detectors);
    if (detectors != nullptr)
        result.detectors = config_.detectors;

    // Checkpointing replay over the recovered prefix. The CR stops at the
    // corruption boundary (the log simply ends there) instead of the
    // whole pipeline aborting.
    result.cr_vm = factory_();
    result.cr = std::make_unique<replay::CheckpointReplayer>(
        result.cr_vm.get(), &log, config_.cr);
    {
        obs::ScopedSpan span("cr.run", "cr");
        result.cr_outcome = result.cr->run();
    }
    result.underflows_resolved = result.cr->underflows_resolved();
    result.replay_lag = result.cr->lag();

    // Alarm replays, scheduled per the configured pipeline mode.
    const ArStage ar_stage(factory_, config_.cr.replay, detectors);
    const std::size_t workers =
        config_.pipeline == PipelineMode::kSerial ? 1 : config_.ar_workers;
    auto ar_results =
        replay_alarms(ar_stage, result.cr->pending_alarms(), &log, workers,
                      /*probe=*/nullptr, &result.pipeline_stats);
    finalize_result(&result, std::move(ar_results));

    if (!result.log_integrity.intact()) {
        // Surface the damage as a first-class alarm: replay verdicts
        // derived from a non-intact log only cover the recovered prefix,
        // and tampering cannot be ruled out.
        replay::AlarmAnalysis integrity;
        integrity.is_attack = false;
        integrity.cause = replay::AlarmCause::kLogIntegrity;
        integrity.report = "input log integrity failure: " +
                           result.log_integrity.to_string();
        result.alarms.add(std::move(integrity));
        result.pipeline_stats.counter("log.integrity_failures").inc();
    }
    return result;
}

FrameworkResult
RnrSafeFramework::run()
{
    const bool streamed = config_.pipeline == PipelineMode::kConcurrent;
    FrameworkResult result;
    auto& tracer = obs::Tracer::instance();
    if (tracer.enabled())
        tracer.attach_thread("pipeline");
    obs::ScopedSpan pipeline_span(
        streamed ? "pipeline.concurrent" : "pipeline.serial", "pipeline");

    // 1+2. The session stage: monitored recording and checkpointing
    // replay. Streamed, the recorder feeds the CR through the bounded
    // channel while it runs (Figure 1's arrow is a live queue, not a
    // file handed over after the fact); serial, they run back to back
    // on this thread.
    SessionStage stage(factory_, session_options(config_), config_.detectors);
    HealthPlane plane;
    plane.begin(config_, &stage);
    const SessionResult session = stage.run();
    adopt_session(&result, &stage, session, config_);

    // 3. Alarm replays, one per unresolved alarm. Each AR is independent
    // given its originating checkpoint; results merge in alarm order.
    const ArStage ar_stage(factory_, config_.cr.replay,
                           stage.active_detectors());
    const std::size_t workers = streamed ? config_.ar_workers : 1;
    auto ar_results = replay_alarms(
        ar_stage, result.cr->pending_alarms(), &result.recorder->log(),
        workers, plane.on ? &plane.probe : nullptr, &result.pipeline_stats);
    finalize_result(&result, std::move(ar_results));
    plane.finish(&result);
    return result;
}

}  // namespace rsafe::core
