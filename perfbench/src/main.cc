/**
 * @file
 * perfbench: the end-to-end pipeline benchmark.
 *
 *   perfbench --workload <rop-storm|oltp-steady> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-out <file.json>]
 *   perfbench --list-metrics
 *
 * --trace 0 times whole concurrent pipeline runs (host wall time) and
 * prints the end-to-end metrics. --trace 1 repeats the workload as the
 * serial composition of the public layer calls, timed from outside with
 * spans, and prints the per-layer ledger. Both check every output
 * against a serial reference run made during set-up. The last stdout
 * line is one JSON object {correct, attempted, failed, metrics}; the
 * line before it carries the details (host facts, sample counts, tail
 * percentile, ledger shares, failures). Exit status is 0 only when every
 * check passed.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cpu/tb_engine.h"
#include "ledger.h"
#include "workload.h"

namespace perfbench {
namespace {

using rsafe::core::FrameworkResult;
using rsafe::core::PipelineMode;

/** A reported metric and what it is for. */
struct MetricSpec {
    const char* name;
    const char* unit;
    const char* better;
    const char* layer;   ///< repo module ("" for end-to-end metrics)
    const char* source;  ///< the call or field it is measured from
    const char* moves;   ///< the end-to-end metric it should move
    const char* on;      ///< the workload where it should move it
};

const std::vector<MetricSpec>&
end_to_end_specs()
{
    static const std::vector<MetricSpec> kSpecs = {
        {"e2e_ms.p50", "ms", "lower", "", "median wall time of one run, "
         "first VM build to finalized verdicts", "", "all"},
        {"e2e_ms.tail", "ms", "lower", "", "highest percentile of the same "
         "timing with >=10 samples beyond it", "", "all"},
        {"peak_rss_mb", "MB", "lower", "", "median per-run peak resident "
         "memory (VmHWM, reset before each run)", "", "all"},
        {"setup_s", "s", "lower", "", "median over set-ups (3, or one per "
         "program): build, serial reference run, warm-up run", "", "all"},
    };
    return kSpecs;
}

const std::vector<MetricSpec>&
per_layer_specs()
{
    static const std::vector<MetricSpec> kSpecs = {
        {"hv.vm_build_ms", "ms", "lower", "hv", "every VmFactory() call",
         "e2e_ms.p50, peak_rss_mb", "rop-storm"},
        {"hv.vm_builds", "count", "lower", "hv", "VmFactory() calls",
         "e2e_ms.p50, peak_rss_mb", "rop-storm"},
        {"replay.ckpt_initial_ms", "ms", "lower", "replay/ckpt_store",
         "CheckpointReplayer constructor (full initial checkpoint)",
         "e2e_ms.p50", "all"},
        {"rnr.record_ms", "ms", "lower", "rnr+cpu", "Recorder::run",
         "e2e_ms.p50", "oltp-steady"},
        {"rnr.record_mips", "Minstr/s", "higher", "rnr+cpu",
         "recorded instructions / Recorder::run time", "e2e_ms.p50",
         "oltp-steady"},
        {"rnr.log_records", "count", "lower", "rnr", "recorded InputLog",
         "n/a (work size)", "all"},
        {"rnr.log_bytes", "bytes", "lower", "rnr", "recorded InputLog",
         "n/a (work size)", "all"},
        {"rnr.channel_producer_waits", "count", "lower", "rnr/log_channel",
         "FrameworkResult::channel_stats of the concurrent run",
         "e2e_ms.p50", "oltp-steady"},
        {"rnr.channel_consumer_waits", "count", "lower", "rnr/log_channel",
         "FrameworkResult::channel_stats of the concurrent run",
         "e2e_ms.p50", "oltp-steady"},
        {"replay.cr_run_ms", "ms", "lower", "replay+cpu",
         "CheckpointReplayer::run", "e2e_ms.p50", "oltp-steady"},
        {"replay.cr_mips", "Minstr/s", "higher", "replay+cpu",
         "replayed instructions / CheckpointReplayer::run time",
         "e2e_ms.p50", "oltp-steady"},
        {"replay.checkpoints", "count", "lower", "replay",
         "CheckpointReplayer::checkpoints_taken", "n/a (work size)",
         "oltp-steady"},
        {"replay.ckpt_bytes_stored", "bytes", "lower", "replay/ckpt_store",
         "CheckpointStore::stats().bytes_stored", "peak_rss_mb",
         "oltp-steady"},
        {"replay.ckpt_dedup_ratio", "ratio", "higher", "replay/ckpt_store",
         "CheckpointStore dedup_hits / total_copies", "peak_rss_mb",
         "oltp-steady"},
        {"replay.ar_launches", "count", "lower", "replay",
         "FrameworkResult::alarm_replays (deep reruns included)",
         "e2e_ms.p50, e2e_ms.tail", "rop-storm"},
        {"replay.ar_restore_ms", "ms", "lower", "replay",
         "AlarmReplayer constructor (checkpoint restore)",
         "e2e_ms.p50, e2e_ms.tail", "rop-storm"},
        {"replay.ar_replay_ms", "ms", "lower", "replay",
         "AlarmReplayer::analyze", "e2e_ms.p50, e2e_ms.tail", "rop-storm"},
        {"replay.ar_alarm_ms.p50", "ms", "lower", "replay",
         "per alarm: VM build + restore + analyze", "e2e_ms.tail",
         "rop-storm"},
        {"replay.ar_alarm_ms.tail", "ms", "lower", "replay",
         "per alarm: VM build + restore + analyze", "e2e_ms.tail",
         "rop-storm"},
        {"cpu.record.tb_exec_blocks", "count", "higher", "cpu",
         "recorded VM Cpu::tb_engine().stats().exec_blocks",
         "replay.cr_run_ms -> e2e_ms.p50", "oltp-steady"},
        {"cpu.cr.tb_exec_blocks", "count", "higher", "cpu",
         "CR VM Cpu::tb_engine().stats().exec_blocks",
         "replay.cr_run_ms -> e2e_ms.p50", "oltp-steady"},
        {"cpu.cr.tb_chain_ratio", "ratio", "higher", "cpu",
         "CR VM chain_hits / (chain_hits + chain_misses)",
         "replay.cr_run_ms -> e2e_ms.p50", "oltp-steady"},
        {"core.finalize_ms", "ms", "lower", "core", "core::finalize_result",
         "e2e_ms.p50", "rop-storm"},
        {"obs.trace_coverage", "ratio", "higher", "obs",
         "root span time covered by layer spans (gated >= 0.95)",
         "n/a (ledger health)", "all"},
        {"obs.trace_overhead_pct", "%", "lower", "obs",
         "traced vs untraced composition, median run time",
         "n/a (ledger health)", "all"},
    };
    return kSpecs;
}

constexpr std::size_t kSetups = 3;
/** A tail is the highest percentile with this many samples beyond it. */
constexpr std::size_t kTailBeyond = 10;
/** Timed runs at least, which keeps e2e_ms.tail at or above the median. */
constexpr std::size_t kMinRuns = 2 * kTailBeyond + 1;
constexpr double kMinCoverage = 0.95;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::string trace_out;
    bool list_metrics = false;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
                 "       perfbench --list-metrics\n",
                 why);
    std::exit(2);
}

Args
parse_args(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list-metrics") {
            args.list_metrics = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value);
            else if (flag == "--trace-out")
                args.trace_out = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::exception&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!args.list_metrics &&
        (args.workload.empty() || args.seconds <= 0.0 ||
         (args.trace != 0 && args.trace != 1)))
        usage("--workload, --seconds > 0 and --trace 0|1 are required");
    return args;
}

bool
sanitizer_build()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

/**
 * Return freed heap to the kernel, then reset the peak-RSS mark (VmHWM)
 * to the current RSS, so a run's peak does not depend on how much heap
 * earlier runs left cached in the allocator.
 */
void
reset_peak_rss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** VmHWM in MB (10^6 bytes), or 0 if unavailable. */
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    return 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** The highest nearest-rank percentile with kTailBeyond samples beyond
 *  it (zero when there are too few samples). */
struct Tail {
    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
};

Tail
tail_of(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() <= kTailBeyond)
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t rank = v.size() - kTailBeyond;  // 1-based
    t.value = v[rank - 1];
    t.percentile = 100.0 * double(rank) / double(v.size());
    return t;
}

double
seconds_since(std::int64_t start_ns)
{
    return double(now_ns() - start_ns) / 1e9;
}

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

/** Run bookkeeping shared by both modes. */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void fail(const std::string& why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Checks one run of program @p p; @return "" if it passes. */
std::string
check(const Workload& w, std::size_t p, const FrameworkResult& result,
      const Fingerprint& ref, bool with_snapshot)
{
    if (std::string truth = w.check_truth(p, result); !truth.empty())
        return truth;
    if (std::string diff = fingerprint(result).diff(ref, with_snapshot);
        !diff.empty())
        return diff + " differs from the serial reference";
    return "";
}

/**
 * Set-up: create the workload, then @p times set-ups, each of which
 * builds a program of the rotation (in turn), makes its serial reference
 * run and warms up with one concurrent run checked against it. A
 * program set up again must reproduce its first reference.
 */
struct Setup {
    std::unique_ptr<Workload> workload;
    std::vector<Fingerprint> references;  ///< one per program
    std::vector<double> seconds;          ///< one per set-up
    std::string error;
};

Setup
set_up(const Args& args, std::size_t times)
{
    Setup s;
    s.workload = Workload::create(args.workload, args.seed);
    if (!s.workload) {
        s.error = "unknown workload " + args.workload;
        return s;
    }
    Workload& w = *s.workload;
    times = std::max(times, w.programs());
    for (std::size_t i = 0; i < times && s.error.empty(); ++i) {
        const std::size_t p = i % w.programs();
        const std::int64_t t0 = now_ns();
        try {
            w.prepare(p);
            const FrameworkResult ref = w.run(p, PipelineMode::kSerial);
            if (std::string truth = w.check_truth(p, ref); !truth.empty())
                s.error = "serial reference: " + truth;
            const Fingerprint fp = fingerprint(ref);
            if (p == s.references.size())
                s.references.push_back(fp);
            else if (std::string d = fp.diff(s.references[p], true);
                     !d.empty())
                s.error = "serial reference not reproducible: " + d;
            const FrameworkResult warm = w.run(p, PipelineMode::kConcurrent);
            if (std::string why = check(w, p, warm, s.references[p], true);
                !why.empty() && s.error.empty())
                s.error = "warm-up run: " + why;
        } catch (const std::exception& e) {
            s.error = std::string("set-up threw: ") + e.what();
        }
        s.seconds.push_back(seconds_since(t0));
    }
    return s;
}

void
print_metric(std::FILE* f, bool* first, const char* name, double value,
             const char* unit)
{
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 *first ? "" : ", ", name, value, unit);
    *first = false;
}

std::string
host_json(const Workload& w, int threads_peak)
{
    const unsigned cpus = std::thread::hardware_concurrency();
    const bool sanitized = sanitizer_build();
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "\"host\": {\"host_cpus\": %u, \"threads_peak\": %d, "
                  "\"threads_within_cpus\": %s, \"build_type\": \"%s\", "
                  "\"sanitizer_build\": %s, \"wall_metrics_usable\": %s}, "
                  "\"seed\": %llu, \"seed_reaches_program\": %s",
                  cpus, threads_peak,
                  threads_peak <= int(cpus) ? "true" : "false",
                  PERFBENCH_BUILD_TYPE, sanitized ? "true" : "false",
                  sanitized ? "false" : "true",
                  static_cast<unsigned long long>(w.seed()),
                  w.seeded() ? "true" : "false");
    return buf;
}

std::string
failures_json(const Tally& tally)
{
    std::string out = "[";
    for (std::size_t i = 0; i < tally.failures.size(); ++i)
        out += (i ? ", \"" : "\"") + json_escape(tally.failures[i]) + "\"";
    return out + "]";
}

/** The concurrent pipeline's threads: main + recorder + CR while the
 *  session streams, then main + the AR workers. */
int
threads_peak()
{
    return 1 + int(std::max<std::size_t>(2, Workload::kArWorkers));
}

int
run_e2e(const Args& args)
{
    Setup setup = set_up(args, kSetups);
    Tally tally;
    std::vector<double> wall_ms, rss_mb;
    if (setup.error.empty()) {
        Workload& w = *setup.workload;
        const std::int64_t start = now_ns();
        // Past --seconds only to reach kMinRuns, and never after a
        // failure (the result is already incorrect).
        while (seconds_since(start) < args.seconds ||
               (wall_ms.size() < kMinRuns && tally.failed == 0)) {
            const std::size_t p = tally.attempted++ % w.programs();
            try {
                reset_peak_rss();
                const std::int64_t t0 = now_ns();
                const FrameworkResult out =
                    w.run(p, PipelineMode::kConcurrent);
                const double ms = double(now_ns() - t0) / 1e6;
                const double rss = peak_rss_mb();
                if (std::string why =
                        check(w, p, out, setup.references[p], true);
                    !why.empty()) {
                    tally.fail(why);
                    continue;
                }
                wall_ms.push_back(ms);
                rss_mb.push_back(rss);
            } catch (const std::exception& e) {
                tally.fail(std::string("run threw: ") + e.what());
            }
        }
    } else {
        tally.attempted = 1;
        tally.fail(setup.error);
    }

    const Tail tail = tail_of(wall_ms);
    const double fail_frac = double(tally.failed) / double(tally.attempted);
    const bool correct = tally.failed == 0 && tail.samples >= kMinRuns;
    if (setup.error.empty()) {
        std::printf("{\"perfbench\": {\"mode\": \"e2e\", \"workload\": "
                    "\"%s\", %s, \"pipeline\": \"concurrent\", "
                    "\"ar_workers\": %zu, \"programs\": %zu, \"runs\": %zu, "
                    "\"tail_percentile\": %.2f, \"tail_samples\": %zu, "
                    "\"fail_frac\": {\"value\": %.17g, \"unit\": "
                    "\"ratio\"}, \"setup_samples_s\": [",
                    args.workload.c_str(),
                    host_json(*setup.workload, threads_peak()).c_str(),
                    Workload::kArWorkers, setup.workload->programs(),
                    wall_ms.size(), tail.percentile,
                    tail.samples, fail_frac);
        for (std::size_t i = 0; i < setup.seconds.size(); ++i)
            std::printf("%s%.6f", i ? ", " : "", setup.seconds[i]);
        std::printf("], \"wall_ms_samples\": [");
        for (std::size_t i = 0; i < wall_ms.size(); ++i)
            std::printf("%s%.3f", i ? ", " : "", wall_ms[i]);
        std::printf("], \"failures\": %s}}\n", failures_json(tally).c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    bool first = true;
    print_metric(stdout, &first, "e2e_ms.p50", median(wall_ms), "ms");
    print_metric(stdout, &first, "e2e_ms.tail", tail.value, "ms");
    print_metric(stdout, &first, "peak_rss_mb", median(rss_mb), "MB");
    print_metric(stdout, &first, "setup_s", median(setup.seconds), "s");
    std::printf("}}\n");
    return correct ? 0 : 1;
}

/** Per-layer values of one traced composition run. */
std::map<std::string, double>
layer_values(const RunLedger& l, const FrameworkResult& r)
{
    std::map<std::string, double> v;
    const double record_ms = l.total_ms("rnr.record");
    const double cr_ms = l.total_ms("replay.cr_run");
    v["hv.vm_build_ms"] = l.total_ms("hv.vm_build");
    v["hv.vm_builds"] = double(l.count("hv.vm_build"));
    v["replay.ckpt_initial_ms"] = l.total_ms("replay.ckpt_initial");
    v["rnr.record_ms"] = record_ms;
    v["rnr.record_mips"] =
        record_ms > 0
            ? double(r.recorded_vm->cpu().icount()) / (record_ms * 1e3)
            : 0.0;
    v["rnr.log_records"] = double(r.recorder->log().size());
    v["rnr.log_bytes"] = double(r.recorder->log().total_bytes());
    v["replay.cr_run_ms"] = cr_ms;
    v["replay.cr_mips"] =
        cr_ms > 0 ? double(r.cr_vm->cpu().icount()) / (cr_ms * 1e3) : 0.0;
    v["replay.checkpoints"] = double(r.cr->checkpoints_taken());
    const auto& store = r.cr->checkpoints();
    const auto cs = store.stats();
    v["replay.ckpt_bytes_stored"] = double(cs.bytes_stored);
    v["replay.ckpt_dedup_ratio"] =
        store.total_copies() > 0
            ? double(cs.dedup_hits) / double(store.total_copies())
            : 0.0;
    v["replay.ar_launches"] = double(r.alarm_replays);
    v["replay.ar_restore_ms"] = l.total_ms("replay.ar_restore");
    v["replay.ar_replay_ms"] = l.total_ms("replay.ar_replay");
    v["cpu.record.tb_exec_blocks"] =
        double(r.recorded_vm->cpu().tb_engine().stats().exec_blocks);
    const auto& tb = r.cr_vm->cpu().tb_engine().stats();
    v["cpu.cr.tb_exec_blocks"] = double(tb.exec_blocks);
    v["cpu.cr.tb_chain_ratio"] =
        tb.chain_hits + tb.chain_misses > 0
            ? double(tb.chain_hits) / double(tb.chain_hits + tb.chain_misses)
            : 0.0;
    v["core.finalize_ms"] = l.total_ms("core.finalize");
    return v;
}

int
run_traced(const Args& args)
{
    Setup setup = set_up(args, 1);  // one per program
    Tally tally;
    Ledger ledger;
    std::vector<RunLedger> ledgers;
    std::vector<std::map<std::string, double>> values;
    std::vector<double> alarm_ms, traced_ms, untraced_ms;
    std::vector<double> producer_waits, consumer_waits;
    std::vector<std::uint64_t> builds_per_run;
    if (setup.error.empty()) {
        Workload& w = *setup.workload;
        const std::int64_t start = now_ns();
        std::size_t iteration = 0;
        while (seconds_since(start) < args.seconds ||
               (ledgers.empty() && tally.failed == 0)) {
            const std::size_t p = iteration++ % w.programs();
            const Fingerprint& ref = setup.references[p];
            try {
                // 1. The traced composition. Compositions skip ArStage's
                // ar.* counters, so their counter snapshot is not compared.
                ++tally.attempted;
                ledger.set_enabled(true);
                ledger.next_run();
                std::int64_t t0 = now_ns();
                const FrameworkResult out = w.compose(p, &ledger);
                traced_ms.push_back(double(now_ns() - t0) / 1e6);
                const RunLedger l = ledger.digest(ledger.run_id());
                if (std::string why = check(w, p, out, ref, false);
                    !why.empty()) {
                    tally.fail("traced composition: " + why);
                } else {
                    values.push_back(layer_values(l, out));
                    const auto it = l.durations.find("replay.ar_alarm");
                    if (it != l.durations.end())
                        alarm_ms.insert(alarm_ms.end(), it->second.begin(),
                                        it->second.end());
                    ledgers.push_back(l);
                }

                // 2. The same composition with spans off.
                ++tally.attempted;
                ledger.set_enabled(false);
                t0 = now_ns();
                const FrameworkResult plain = w.compose(p, &ledger);
                untraced_ms.push_back(double(now_ns() - t0) / 1e6);
                if (std::string why = check(w, p, plain, ref, false);
                    !why.empty())
                    tally.fail("untraced composition: " + why);

                // 3. The concurrent pipeline, for its channel stats.
                ++tally.attempted;
                const std::uint64_t before = w.vm_builds();
                const FrameworkResult conc =
                    w.run(p, PipelineMode::kConcurrent);
                builds_per_run.push_back(w.vm_builds() - before);
                if (std::string why = check(w, p, conc, ref, true);
                    !why.empty()) {
                    tally.fail("concurrent run: " + why);
                } else {
                    producer_waits.push_back(
                        double(conc.channel_stats.producer_waits));
                    consumer_waits.push_back(
                        double(conc.channel_stats.consumer_waits));
                }
            } catch (const std::exception& e) {
                tally.fail(std::string("run threw: ") + e.what());
            }
        }
    } else {
        tally.attempted = 1;
        tally.fail(setup.error);
    }

    // Aggregate: per-run medians, pooled alarm spans, whole-run coverage.
    std::map<std::string, double> metric;
    for (const MetricSpec& spec : per_layer_specs()) {
        std::vector<double> per_run;
        for (const auto& v : values)
            if (const auto it = v.find(spec.name); it != v.end())
                per_run.push_back(it->second);
        metric[spec.name] = median(per_run);
    }
    metric["rnr.channel_producer_waits"] = median(producer_waits);
    metric["rnr.channel_consumer_waits"] = median(consumer_waits);
    metric["replay.ar_alarm_ms.p50"] = median(alarm_ms);
    const Tail alarm_tail = tail_of(alarm_ms);
    metric["replay.ar_alarm_ms.tail"] = alarm_tail.value;
    double root_sum = 0.0, covered_sum = 0.0, worst_gap = 0.0;
    std::string worst_gap_after;
    for (const RunLedger& l : ledgers) {
        root_sum += l.root_ms;
        covered_sum += l.coverage * l.root_ms;
        if (l.largest_gap_ms > worst_gap) {
            worst_gap = l.largest_gap_ms;
            worst_gap_after = l.largest_gap_after;
        }
    }
    const double coverage = root_sum > 0 ? covered_sum / root_sum : 0.0;
    metric["obs.trace_coverage"] = coverage;
    const double plain = median(untraced_ms);
    metric["obs.trace_overhead_pct"] =
        plain > 0 ? 100.0 * (median(traced_ms) - plain) / plain : 0.0;
    if (!ledgers.empty() && coverage < kMinCoverage) {
        char why[256];
        std::snprintf(why, sizeof why,
                      "trace coverage %.4f < %.2f: largest gap %.3f ms "
                      "after span %s",
                      coverage, kMinCoverage, worst_gap,
                      worst_gap_after.c_str());
        tally.fail(why);
    }
    // The wrapped factory counts the concurrent pipeline's VM builds;
    // the composition must make exactly as many.
    for (const std::uint64_t b : builds_per_run)
        if (double(b) != metric["hv.vm_builds"]) {
            tally.fail("concurrent run built " + std::to_string(b) +
                       " VMs, composition " +
                       std::to_string(metric["hv.vm_builds"]));
            break;
        }

    const bool correct = tally.failed == 0 && !ledgers.empty();
    if (setup.error.empty()) {
        // The ledger: median self time per span per run, and its share.
        std::map<std::string, std::vector<double>> self;
        std::vector<double> roots;
        for (const RunLedger& l : ledgers) {
            roots.push_back(l.root_ms);
            for (const auto& [name, ms] : l.self_ms)
                self[name].push_back(ms);
        }
        const double root = median(roots);
        std::printf("{\"perfbench\": {\"mode\": \"traced\", \"workload\": "
                    "\"%s\", %s, \"pipeline\": \"serial composition\", "
                    "\"traced_runs\": %zu, \"root_ms_p50\": %.6f, "
                    "\"largest_gap_ms\": %.6f, \"largest_gap_after\": "
                    "\"%s\", \"ar_alarm_tail_percentile\": %.2f, "
                    "\"ar_alarm_samples\": %zu, \"self_ms_p50\": {",
                    args.workload.c_str(),
                    host_json(*setup.workload, threads_peak()).c_str(),
                    ledgers.size(), root, worst_gap,
                    worst_gap_after.c_str(), alarm_tail.percentile,
                    alarm_tail.samples);
        bool first = true;
        for (const auto& [name, ms] : self) {
            const double m = median(ms);
            std::printf("%s\"%s\": {\"ms\": %.6f, \"share\": %.6f}",
                        first ? "" : ", ", name.c_str(), m,
                        root > 0 ? m / root : 0.0);
            first = false;
        }
        std::printf("}, \"failures\": %s}}\n", failures_json(tally).c_str());
    }
    if (!args.trace_out.empty() && !ledger.write_chrome_json(args.trace_out))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    bool first = true;
    for (const MetricSpec& spec : per_layer_specs())
        print_metric(stdout, &first, spec.name, metric[spec.name], spec.unit);
    std::printf("}}\n");
    return correct ? 0 : 1;
}

void
list_metrics()
{
    const auto print = [](const char* key,
                          const std::vector<MetricSpec>& specs) {
        std::printf("\"%s\": [", key);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const MetricSpec& s = specs[i];
            std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", "
                        "\"better\": \"%s\", \"layer\": \"%s\", "
                        "\"source\": \"%s\", \"moves\": \"%s\", "
                        "\"on\": \"%s\"}",
                        i ? ", " : "", s.name, s.unit, s.better, s.layer,
                        json_escape(s.source).c_str(), s.moves, s.on);
        }
        std::printf("]");
    };
    std::printf("{\"workloads\": [");
    const auto& names = Workload::names();
    for (std::size_t i = 0; i < names.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", names[i].c_str());
    std::printf("], ");
    print("end_to_end", end_to_end_specs());
    std::printf(", ");
    print("per_layer", per_layer_specs());
    std::printf("}\n");
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.list_metrics) {
        perfbench::list_metrics();
        return 0;
    }
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    return args.trace == 1 ? perfbench::run_traced(args)
                           : perfbench::run_e2e(args);
}
