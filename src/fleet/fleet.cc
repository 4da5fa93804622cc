#include "fleet/fleet.h"

#include <exception>
#include <thread>
#include <utility>

#include <chrono>
#include <sstream>

#include "common/log.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "rnr/log_source.h"

namespace rsafe::fleet {

/**
 * Everything one tenant needs while its session runs and its alarm jobs
 * float through the shared pool. Lives on the fleet's run() stack and
 * outlives the pool, so job closures can hold raw pointers to it.
 */
struct ReplayFleet::TenantState {
    std::string name;
    const core::FrameworkConfig* config = nullptr;
    std::size_t pool_id = 0;
    std::unique_ptr<core::SessionStage> stage;
    std::unique_ptr<core::ArStage> ar;

    core::SessionResult session;
    std::exception_ptr error;

    /** Guards the job bookkeeping below against pool workers. */
    std::mutex mu;
    /** Jobs submitted so far; a job's sequence number is its slot. The
     *  CR queues alarms in log order, so slot order == alarm order. */
    std::size_t submitted = 0;
    std::vector<core::AlarmReplayResult> results;
    std::vector<char> done;
    /** Ship-mode volume (under mu; workers ship concurrently). */
    std::size_t jobs_shipped = 0;
    std::uint64_t bytes_shipped = 0;
    /** Per-tenant AR counters, merged from per-job registries. Counter
     *  and histogram merges are commutative, so completion order does
     *  not perturb the totals. */
    stats::StatRegistry ar_stats;

    /** Live signals for the health monitor (relaxed atomics only). */
    obs::HealthProbe probe;
};

ReplayFleet::ReplayFleet(std::vector<FleetTenant> tenants,
                         FleetOptions options)
    : tenants_(std::move(tenants)), options_(options)
{
    if (tenants_.empty())
        fatal("ReplayFleet: no tenants");
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (!tenants_[i].factory)
            fatal("ReplayFleet: tenant without a VM factory");
        if (tenants_[i].name.empty())
            fatal("ReplayFleet: tenant without a name");
        for (std::size_t j = i + 1; j < tenants_.size(); ++j)
            if (tenants_[i].name == tenants_[j].name)
                fatal("ReplayFleet: duplicate tenant name '" +
                      tenants_[i].name + "'");
    }
}

void
ReplayFleet::shutdown(ShutdownMode mode)
{
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
    if (mode == ShutdownMode::kAbandon)
        abandon_requested_ = true;
    for (TenantState* state : live_states_)
        state->stage->request_stop();
    // Discarding queued jobs waits out the ones already executing; fleet
    // jobs never touch mu_, so holding it here only delays run()'s own
    // brief bookkeeping sections.
    if (abandon_requested_ && live_pool_ != nullptr)
        live_pool_->abandon();
}

FleetResult
ReplayFleet::run()
{
    if (ran_)
        fatal("ReplayFleet: run() called twice");
    ran_ = true;
    FleetResult out;

    // The health plane. Declaration order is lifetime order in reverse:
    // the flight recorder precedes the pool (worker closures write into
    // it), the monitor and the endpoint follow it (their samplers and
    // providers read the pool and the stages, so they must be torn down
    // first).
    const bool health_on = obs::health_enabled(options_.health);
    obs::FlightRecorder flight;

    // States must outlive the pool (job closures hold raw TenantState
    // pointers), so they are declared first and destroyed last.
    std::vector<std::unique_ptr<TenantState>> states;
    states.reserve(tenants_.size());

    PoolOptions pool_options;
    pool_options.workers = options_.workers;
    pool_options.tenant_inflight_cap = options_.tenant_inflight_cap;
    WorkStealingPool pool(pool_options);

    obs::HealthMonitor monitor(options_.health);

    for (const FleetTenant& tenant : tenants_) {
        auto state = std::make_unique<TenantState>();
        state->name = tenant.name;
        state->config = &tenant.config;
        state->pool_id = pool.register_tenant(tenant.name);
        state->stage = std::make_unique<core::SessionStage>(
            tenant.factory, core::session_options(tenant.config, tenant.name),
            tenant.config.detectors);
        state->ar = std::make_unique<core::ArStage>(
            tenant.factory, tenant.config.cr.replay,
            state->stage->active_detectors());

        // The sink runs on this tenant's CR thread: claim the next slot,
        // wrap the job's owned slice in a SliceLogSource, and hand it to
        // the shared pool. The pool worker writes the result back into
        // the claimed slot, so out-of-order execution still lands in
        // alarm order.
        TenantState* raw = state.get();
        WorkStealingPool* pool_ptr = &pool;
        obs::FlightRecorder* flight_ptr = health_on ? &flight : nullptr;
        const bool ship = options_.ship_checkpoints;
        state->stage->set_alarm_sink(
            [raw, pool_ptr, flight_ptr, ship](const core::AlarmJob& job) {
                auto owned = std::make_shared<core::AlarmJob>(job);
                std::size_t seq;
                {
                    std::lock_guard<std::mutex> lock(raw->mu);
                    seq = raw->submitted++;
                    raw->results.resize(raw->submitted);
                    raw->done.resize(raw->submitted, 0);
                }
                pool_ptr->submit(raw->pool_id,
                                 [raw, owned, seq, ship, flight_ptr] {
                    stats::StatRegistry local;
                    // A job can arrive without a checkpoint (interval 0,
                    // or the byte budget recycled past the alarm); its
                    // slice is based at the alarm itself and the AR
                    // returns a clean checkpoint-unavailable verdict.
                    const auto& ck = owned->pending.checkpoint;
                    rnr::SliceLogSource source(
                        ck ? ck->log_pos : owned->pending.log_index,
                        std::move(owned->slice));
                    core::AlarmReplayResult result;
                    if (ship && ck) {
                        // Ship mode: the worker sees exactly what a
                        // remote AR tier would — the serialized image,
                        // not the live object graph.
                        const std::vector<std::uint8_t> image =
                            replay::ckpt::serialize_checkpoint(*ck);
                        result = raw->ar->analyze_image(
                            owned->pending, image, &source, &local);
                        std::lock_guard<std::mutex> lock(raw->mu);
                        ++raw->jobs_shipped;
                        raw->bytes_shipped += image.size();
                    } else {
                        result = raw->ar->analyze(owned->pending, &source,
                                                  &local);
                    }
                    if (flight_ptr != nullptr) {
                        raw->probe.note_verdict(
                            result.analysis.analysis_cycles);
                        if (result.analysis.is_attack) {
                            // An attack verdict is exactly the moment
                            // the black box exists for.
                            flight_ptr->record(
                                obs::FlightEntryKind::kVerdict, raw->name,
                                "attack",
                                result.analysis.analysis_cycles);
                            flight_ptr->dump("attack-verdict:" + raw->name);
                        }
                    }
                    std::lock_guard<std::mutex> lock(raw->mu);
                    raw->results[seq] = std::move(result);
                    raw->done[seq] = 1;
                    raw->ar_stats.merge(local);
                });
            });

        if (health_on) {
            // The sampler runs on the monitor thread: probe atomics,
            // the mutex-guarded live channel stats, and the pool's
            // locked stats are the only live state it touches.
            state->stage->set_health_probe(&raw->probe);
            monitor.add_tenant(raw->name, [raw, pool_ptr] {
                obs::HealthSample sample = raw->stage->sample_health();
                sample.set(obs::HealthSignal::kPoolStarvation,
                           pool_ptr->stats().starved_waits);
                return sample;
            });
        }
        states.push_back(std::move(state));
    }

    obs::TelemetryServer telemetry(
        options_.telemetry,
        obs::TelemetryProviders{
            [&monitor] { return monitor.metrics_prometheus(); },
            [&monitor] { return monitor.healthz_json(); },
            [&flight] { return flight.latest(); },
        });
    if (health_on) {
        obs::FlightRecorder* flight_ptr = &flight;
        obs::record_transitions(&monitor, flight_ptr);
        monitor.add_sample_listener(
            [flight_ptr](const std::string& tenant,
                         const obs::HealthSample& sample) {
                std::ostringstream detail;
                for (std::size_t s = 0; s < obs::kNumHealthSignals; ++s) {
                    if (s != 0)
                        detail << " ";
                    detail << obs::health_signal_name(
                                  static_cast<obs::HealthSignal>(s))
                           << "=" << sample.values[s];
                }
                flight_ptr->record(
                    obs::FlightEntryKind::kSample, tenant, "signals",
                    sample.get(obs::HealthSignal::kQueueDepth),
                    detail.str());
            });
        monitor.start();
        telemetry.start();
    }

    // Publish the live run for shutdown(), honoring one requested before
    // the states existed.
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& state : states)
            live_states_.push_back(state.get());
        live_pool_ = &pool;
        if (shutdown_requested_)
            for (TenantState* state : live_states_)
                state->stage->request_stop();
    }

    // One thread per tenant session; streamed tenants spawn their
    // recorder/CR pair inside SessionStage::run().
    std::vector<std::thread> sessions;
    sessions.reserve(states.size());
    for (auto& state : states) {
        TenantState* raw = state.get();
        sessions.emplace_back([raw] {
            try {
                if (obs::Tracer::instance().enabled()) {
                    const std::string track = raw->name + ".session";
                    obs::Tracer::instance().attach_thread(track.c_str());
                }
                raw->session = raw->stage->run();
            } catch (...) {
                raw->error = std::current_exception();
            }
        });
    }
    for (auto& session : sessions)
        session.join();

    // Sessions are done; finish (or discard) the alarm jobs. drain()
    // returns at once after abandon(), and either way rethrows the first
    // exception an alarm job threw: like a session error, it is rethrown
    // once the run is torn down.
    bool abandon;
    {
        std::lock_guard<std::mutex> lock(mu_);
        abandon = abandon_requested_;
    }
    std::exception_ptr job_error;
    try {
        if (abandon)
            pool.abandon();
        pool.drain();
    } catch (...) {
        job_error = std::current_exception();
    }
    out.pool = pool.stats();
    out.tenant_pool = pool.tenant_stats();

    // The run is quiescing: unpublish before tearing anything down.
    {
        std::lock_guard<std::mutex> lock(mu_);
        live_states_.clear();
        live_pool_ = nullptr;
    }

    // Wind down the health plane while everything its samplers read is
    // still alive: the abandon decision goes into the black box, the
    // monitor runs its final tick, and the endpoint lingers (if asked)
    // so late scrapers see the end state before the snapshots land.
    if (health_on) {
        if (abandon) {
            flight.record(obs::FlightEntryKind::kShutdown, "", "abandon");
            flight.dump("abandon-shutdown");
        }
        monitor.stop();
        if (flight.dumps() == 0)
            flight.dump("run-complete");
        std::uint32_t lingered = 0;
        while (telemetry.running() &&
               lingered < options_.telemetry_linger_ms) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (shutdown_requested_)
                    break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            lingered += 50;
        }
    }
    telemetry.stop();

    for (auto& state : states)
        if (state->error)
            std::rethrow_exception(state->error);
    if (job_error)
        std::rethrow_exception(job_error);

    for (auto& state : states) {
        TenantRunResult tenant;
        tenant.name = state->name;
        core::FrameworkResult& fr = tenant.result;

        core::adopt_session(&fr, state->stage.get(), state->session,
                            *state->config);

        // Completed jobs in submission (= alarm) order; discarded jobs
        // leave holes that mark the tenant partial.
        std::vector<core::AlarmReplayResult> ar_results;
        {
            std::lock_guard<std::mutex> lock(state->mu);
            ar_results.reserve(state->submitted);
            for (std::size_t i = 0; i < state->submitted; ++i) {
                if (state->done[i])
                    ar_results.push_back(std::move(state->results[i]));
                else
                    ++tenant.jobs_dropped;
            }
            tenant.jobs_shipped = state->jobs_shipped;
            tenant.bytes_shipped = state->bytes_shipped;
            fr.pipeline_stats.merge(state->ar_stats);
        }
        core::finalize_result(&fr, std::move(ar_results));
        tenant.partial =
            state->session.stopped || tenant.jobs_dropped > 0;
        out.tenants.push_back(std::move(tenant));
    }

    collect_metrics(&out);
    if (health_on) {
        monitor.export_metrics(&out.metrics);
        out.healthz = monitor.healthz_json();
        out.health_events = monitor.events();
        out.flight_box = flight.latest();
        out.telemetry_port = telemetry.port();
    }
    return out;
}

void
ReplayFleet::collect_metrics(FleetResult* out)
{
    auto& metrics = out->metrics;
    for (const TenantRunResult& tenant : out->tenants) {
        const std::string prefix = "tenant." + tenant.name + ".";
        metrics.merge_prefixed(tenant.result.pipeline_stats, prefix);
        auto& latency = metrics.histogram(
            prefix + "ar.verdict_latency", core::ArStage::kLatencyHistMax,
            core::ArStage::kLatencyHistBuckets);
        for (const auto& ar : tenant.result.ar_results)
            latency.sample(ar.analysis.analysis_cycles);
        metrics.counter(prefix + "jobs_dropped").inc(tenant.jobs_dropped);
        if (tenant.partial)
            metrics.counter(prefix + "partial").inc();
        // Ship-mode volume: gauges, so shipped and in-memory runs keep
        // identical counter snapshots (the A/B determinism lever).
        metrics.gauge(prefix + "ckpt.shipped_jobs")
            .set(0, tenant.jobs_shipped);
        metrics.gauge(prefix + "ckpt.shipped_bytes")
            .set(0, tenant.bytes_shipped);
    }
    // Deterministic pool totals ride in counters; scheduling noise
    // (steals, starvation, hand-off shapes) rides in gauges, which
    // snapshot() excludes — same split the pipeline stats use.
    metrics.counter("fleet.pool.submitted").inc(out->pool.submitted);
    metrics.counter("fleet.pool.executed").inc(out->pool.executed);
    metrics.counter("fleet.pool.discarded").inc(out->pool.discarded);
    metrics.gauge("fleet.pool.global_takes").set(0, out->pool.global_takes);
    metrics.gauge("fleet.pool.steals").set(0, out->pool.steals);
    metrics.gauge("fleet.pool.stolen_jobs").set(0, out->pool.stolen_jobs);
    metrics.gauge("fleet.pool.starved_waits")
        .set(0, out->pool.starved_waits);
    metrics.gauge("fleet.pool.max_admitted").set(0, out->pool.max_admitted);
    metrics.gauge("fleet.pool.workers").set(0, out->pool.workers);
}

}  // namespace rsafe::fleet
