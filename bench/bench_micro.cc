/**
 * @file
 * Micro-benchmarks (google-benchmark) of the substrate's hot paths:
 * interpreter and translation-block engine throughput, RAS operations,
 * log serialization, and checkpoint page copying.
 *
 * Besides the google-benchmark suite, the binary always finishes by
 * writing machine-readable results to BENCH_micro.json (instructions/sec
 * and ns/instr for the TB engine and for the exec_one reference
 * interpreter (TB off) with the decode cache on and off, the call/ret
 * loop also with the recorder's RAS alarms and eviction exits armed,
 * plus full/incremental checkpoint costs and machine-independent
 * speedup ratios). Every figure is a median over kRounds rounds. Pass
 * --json-only to skip the google-benchmark suite and emit just the JSON.
 *
 * Pass --gate <baseline.json> to run as a CI perf gate: the fresh
 * speedup ratios are compared against the checked-in baseline and the
 * process exits non-zero on a regression beyond the tolerance
 * (RSAFE_BENCH_GATE_TOLERANCE, percent, default 10). Ratios — not
 * absolute throughput — are gated so the check is meaningful across
 * machines of different speeds; each is the median of per-round ratios
 * whose two sides ran back to back. The TB-over-interpreter ALU speedup
 * additionally has an absolute floor of 2.5x.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/cpu.h"
#include "cpu/ras.h"
#include "isa/assembler.h"
#include "mem/phys_mem.h"
#include "replay/checkpoint.h"
#include "replay/ckpt_store/page_pool.h"
#include "rnr/log_record.h"
#include "rnr/replayer.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace {

using namespace rsafe;

class NullEnv : public cpu::CpuEnv {
  public:
    Word on_rdtsc() override { return 0; }
    Word on_io_in(std::uint16_t) override { return 0; }
    void on_io_out(std::uint16_t, Word) override {}
    Word on_mmio_read(Addr) override { return 0; }
    void on_mmio_write(Addr, Word) override {}
    void on_breakpoint(Addr) override {}
    void on_ras_alarm(const cpu::RasAlarm&) override {}
    void on_ras_evict(Addr) override {}
    void on_call_ret(const cpu::CallRetEvent&) override {}
};

void
BM_InterpreterAluLoop(benchmark::State& state)
{
    isa::Assembler a(0x1000);
    a.ldi(isa::R1, 1);
    a.label("loop");
    a.add(isa::R2, isa::R2, isa::R1);
    a.xori(isa::R2, isa::R2, 0x55);
    a.shli(isa::R3, isa::R2, 3);
    a.jmp("loop");
    auto image = a.link();

    mem::PhysMem mem(1 << 20);
    mem.load_image(image);
    mem.set_perms(0x1000, image.size(), mem::kPermRX);
    cpu::Cpu cpu(&mem);
    NullEnv env;
    cpu.set_env(&env);
    cpu.state().pc = 0x1000;
    cpu.state().sp = 0x80000;

    for (auto _ : state) {
        cpu.run(~static_cast<Cycles>(0), cpu.icount() + 100000);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cpu.icount()));
}
BENCHMARK(BM_InterpreterAluLoop);

void
BM_InterpreterAluLoopNoTb(benchmark::State& state)
{
    isa::Assembler a(0x1000);
    a.ldi(isa::R1, 1);
    a.label("loop");
    a.add(isa::R2, isa::R2, isa::R1);
    a.xori(isa::R2, isa::R2, 0x55);
    a.shli(isa::R3, isa::R2, 3);
    a.jmp("loop");
    auto image = a.link();

    mem::PhysMem mem(1 << 20);
    mem.load_image(image);
    mem.set_perms(0x1000, image.size(), mem::kPermRX);
    cpu::Cpu cpu(&mem);
    NullEnv env;
    cpu.set_env(&env);
    cpu.set_tb_enabled(false);
    cpu.state().pc = 0x1000;
    cpu.state().sp = 0x80000;

    for (auto _ : state) {
        cpu.run(~static_cast<Cycles>(0), cpu.icount() + 100000);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cpu.icount()));
}
BENCHMARK(BM_InterpreterAluLoopNoTb);

void
BM_InterpreterCallRet(benchmark::State& state)
{
    isa::Assembler a(0x1000);
    a.label("loop");
    a.call("fn");
    a.jmp("loop");
    a.func_begin("fn");
    a.ret();
    a.func_end();
    auto image = a.link();

    mem::PhysMem mem(1 << 20);
    mem.load_image(image);
    mem.set_perms(0x1000, image.size(), mem::kPermRX);
    cpu::Cpu cpu(&mem);
    NullEnv env;
    cpu.set_env(&env);
    cpu.state().pc = 0x1000;
    cpu.state().sp = 0x80000;

    for (auto _ : state)
        cpu.run(~static_cast<Cycles>(0), cpu.icount() + 100000);
    state.SetItemsProcessed(static_cast<std::int64_t>(cpu.icount()));
}
BENCHMARK(BM_InterpreterCallRet);

void
BM_RasPushPredict(benchmark::State& state)
{
    cpu::Ras ras(48);
    Addr predicted;
    for (auto _ : state) {
        ras.push(0x1234);
        benchmark::DoNotOptimize(ras.predict(0, 0x1234, &predicted));
    }
}
BENCHMARK(BM_RasPushPredict);

void
BM_RasSaveRestore(benchmark::State& state)
{
    cpu::Ras ras(48);
    for (int i = 0; i < 48; ++i)
        ras.push(0x1000 + i);
    for (auto _ : state) {
        auto saved = ras.save_and_clear();
        ras.load(saved);
    }
}
BENCHMARK(BM_RasSaveRestore);

void
BM_LogRecordSerialize(benchmark::State& state)
{
    rnr::LogRecord record;
    record.type = rnr::RecordType::kNicDma;
    record.icount = 123456;
    record.addr = 0x10000;
    record.payload.assign(1500, 0xab);
    std::vector<std::uint8_t> out;
    for (auto _ : state) {
        out.clear();
        record.serialize(&out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * out.size()));
}
BENCHMARK(BM_LogRecordSerialize);

void
BM_CheckpointPageCopy(benchmark::State& state)
{
    // A dirty page as a checkpoint take sees it: incompressible content,
    // and one byte changed per iteration so every intern misses the pool
    // and pays copy + hash + insert.
    replay::ckpt::PagePool pool;
    std::vector<std::uint8_t> page(kPageSize);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i * 131 + 7);
    std::uint8_t tick = 0;
    for (auto _ : state) {
        page[0] = ++tick;
        benchmark::DoNotOptimize(pool.intern(page.data()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * kPageSize));
}
BENCHMARK(BM_CheckpointPageCopy);

void
BM_MemContentHash(benchmark::State& state)
{
    mem::PhysMem mem(8 << 20);
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.content_hash());
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * mem.size()));
}
BENCHMARK(BM_MemContentHash);

// --- Machine-readable results (BENCH_micro.json) ---

/**
 * Rounds of every timed measurement. Rows report per-configuration
 * medians; the gated ratios are medians of per-round ratios, each round
 * timing both sides of a ratio back to back, so host noise hits both
 * sides of a round alike and the median ignores the rounds it does not.
 */
constexpr int kRounds = 31;

/** @return the median of @p values. */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** Throughput of one loop configuration. */
struct InterpResult {
    double instr_per_sec = 0.0;
    double ns_per_instr = 0.0;
};

/**
 * One loop program on its own CPU, timed in slices of a fixed number of
 * guest instructions. Translated blocks and the decode cache stay warm
 * from slice to slice, so every slice times steady-state execution.
 */
class LoopBench {
  public:
    LoopBench(const isa::Image& image, bool tb, bool decode_cache,
              bool ras_armed, InstrCount slice)
        : mem_(1 << 20), cpu_(&mem_), slice_(slice)
    {
        mem_.load_image(image);
        mem_.set_perms(image.base(), image.size(), mem::kPermRX);
        cpu_.set_env(&env_);
        cpu_.set_tb_enabled(tb);
        cpu_.set_decode_cache_enabled(decode_cache);
        // The recorder's configuration: RAS alarms and eviction exits on.
        cpu_.vmcs().controls.ras_alarm_enabled = ras_armed;
        cpu_.vmcs().controls.ras_evict_exit = ras_armed;
        cpu_.state().pc = image.base();
        cpu_.state().sp = 0x80000;
        cpu_.run(~static_cast<Cycles>(0), slice / 10);  // warm up
    }

    // cpu_ keeps the addresses of mem_ and env_.
    LoopBench(const LoopBench&) = delete;
    LoopBench& operator=(const LoopBench&) = delete;

    /** Time one slice. @return its throughput in instructions/second. */
    double run_slice()
    {
        const InstrCount start = cpu_.icount();
        const auto t0 = std::chrono::steady_clock::now();
        cpu_.run(~static_cast<Cycles>(0), start + slice_);
        const auto t1 = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        const double ips =
            static_cast<double>(cpu_.icount() - start) / (ns * 1e-9);
        ips_.push_back(ips);
        return ips;
    }

    /** @return the median slice throughput. */
    InterpResult result() const
    {
        const double ips = median(ips_);
        return {ips, 1e9 / ips};
    }

  private:
    NullEnv env_;
    mem::PhysMem mem_;
    cpu::Cpu cpu_;
    InstrCount slice_;
    std::vector<double> ips_;
};

isa::Image
alu_loop_image()
{
    isa::Assembler a(0x1000);
    a.ldi(isa::R1, 1);
    a.label("loop");
    a.add(isa::R2, isa::R2, isa::R1);
    a.xori(isa::R2, isa::R2, 0x55);
    a.shli(isa::R3, isa::R2, 3);
    a.jmp("loop");
    return a.link();
}

isa::Image
call_ret_image()
{
    isa::Assembler a(0x1000);
    a.label("loop");
    a.call("fn");
    a.jmp("loop");
    a.func_begin("fn");
    a.ret();
    a.func_end();
    return a.link();
}

/** Wall-clock costs of the checkpoint paths (medians over kRounds). */
struct CheckpointResult {
    double full_take_ns = 0.0;
    std::size_t full_pages = 0;
    double incremental_take_ns = 0.0;
    std::size_t dirty_pages = 0;
    double rollback_restore_ns = 0.0;
};

CheckpointResult
measure_checkpoint()
{
    using Clock = std::chrono::steady_clock;
    const auto ns_between = [](Clock::time_point t0, Clock::time_point t1) {
        return std::chrono::duration<double, std::nano>(t1 - t0).count();
    };
    auto profile = workloads::benchmark_profile("radiosity");
    profile.rdtsc_prob = 0.0;

    CheckpointResult out;
    std::vector<double> full_ns, incremental_ns, restore_ns;
    // Each round starts from a fresh VM so every full take sees the same
    // memory: a rerun on the same VM would find different pages pristine.
    for (int round = 0; round < kRounds; ++round) {
        auto vm = workloads::make_vm(profile);
        rnr::InputLog empty_log;
        rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
        replay::CheckpointStore store(4);
        vm->cpu().run(~static_cast<Cycles>(0), 1000);

        const auto t0 = Clock::now();
        auto first = store.take(*vm, env, 0);
        full_ns.push_back(ns_between(t0, Clock::now()));
        out.full_pages = first->copies;

        // Dirty a small, fixed working set; an O(dirty) incremental take
        // should cost orders of magnitude less than the full copy above.
        constexpr std::size_t kDirty = 8;
        out.dirty_pages = kDirty;
        for (std::size_t i = 0; i < kDirty; ++i)
            vm->mem().write_raw(0x40000 + i * kPageSize, 8, i + 1);
        const auto t1 = Clock::now();
        auto second = store.take(*vm, env, 1);
        incremental_ns.push_back(ns_between(t1, Clock::now()));

        // Rollback restore into the same VM. Restore keeps no record of
        // which VM a checkpoint came from, so this is the full path:
        // every captured page except a zero one over a pristine page is
        // rewritten (and its code generation bumped), the dirtied ones
        // included.
        for (std::size_t i = 0; i < kDirty; ++i)
            vm->mem().write_raw(0x80000 + i * kPageSize, 8, i + 1);
        const auto t2 = Clock::now();
        replay::restore_checkpoint(*second, vm.get(), &env);
        restore_ns.push_back(ns_between(t2, Clock::now()));
    }
    out.full_take_ns = median(full_ns);
    out.incremental_take_ns = median(incremental_ns);
    out.rollback_restore_ns = median(restore_ns);
    return out;
}

/** Everything that lands in BENCH_micro.json. */
struct BenchResults {
    InterpResult tb_alu;
    InterpResult tb_callret;
    InterpResult tb_callret_armed;
    InterpResult interp_alu;
    InterpResult interp_alu_nocache;
    InterpResult interp_callret;
    InterpResult interp_callret_armed;
    /** Medians of the per-round ratios. @{ */
    double tb_speedup_alu = 0.0;
    double tb_speedup_call_ret = 0.0;
    double tb_speedup_call_ret_armed = 0.0;
    double decode_cache_speedup_alu = 0.0;
    /** @} */
    CheckpointResult ck;
};

BenchResults
measure_all()
{
    const isa::Image alu = alu_loop_image();
    const isa::Image callret = call_ret_image();
    // Slices of 10-50 ms each on a ~3 GHz host.
    LoopBench tb_alu(alu, true, true, false, 20000000);
    LoopBench interp_alu(alu, false, true, false, 3000000);
    LoopBench interp_alu_nocache(alu, false, false, false, 1000000);
    LoopBench tb_callret(callret, true, true, false, 3000000);
    LoopBench interp_callret(callret, false, true, false, 1000000);
    LoopBench tb_armed(callret, true, true, true, 3000000);
    LoopBench interp_armed(callret, false, true, true, 1000000);

    /** (numerator, denominator) of one gated or reported ratio. */
    struct Pair {
        LoopBench* num;
        LoopBench* den;
        std::vector<double> ratios;
    };
    Pair pairs[] = {
        {&tb_alu, &interp_alu, {}},
        {&interp_alu, &interp_alu_nocache, {}},
        {&tb_callret, &interp_callret, {}},
        {&tb_armed, &interp_armed, {}},
    };
    for (int round = 0; round < kRounds; ++round) {
        // Which side of a pair runs first alternates by round.
        for (Pair& pair : pairs) {
            double num;
            double den;
            if (round % 2 == 0) {
                num = pair.num->run_slice();
                den = pair.den->run_slice();
            } else {
                den = pair.den->run_slice();
                num = pair.num->run_slice();
            }
            pair.ratios.push_back(num / den);
        }
    }

    BenchResults r;
    r.tb_alu = tb_alu.result();
    r.interp_alu = interp_alu.result();
    r.interp_alu_nocache = interp_alu_nocache.result();
    r.tb_callret = tb_callret.result();
    r.interp_callret = interp_callret.result();
    r.tb_callret_armed = tb_armed.result();
    r.interp_callret_armed = interp_armed.result();
    r.tb_speedup_alu = median(pairs[0].ratios);
    r.decode_cache_speedup_alu = median(pairs[1].ratios);
    r.tb_speedup_call_ret = median(pairs[2].ratios);
    r.tb_speedup_call_ret_armed = median(pairs[3].ratios);
    r.ck = measure_checkpoint();
    return r;
}

void
write_bench_json(const BenchResults& r, const char* path)
{
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    const auto metric = [f](const char* name, const InterpResult& m,
                            const char* sep) {
        std::fprintf(f,
                     "    \"%s\": {\"instr_per_sec\": %.0f, "
                     "\"ns_per_instr\": %.3f}%s\n",
                     name, m.instr_per_sec, m.ns_per_instr, sep);
    };
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"rsafe-bench-micro-v3\",\n");
    std::fprintf(f, "  \"rounds\": %d,\n", kRounds);
    std::fprintf(f, "  \"tb\": {\n");
    metric("alu_loop", r.tb_alu, ",");
    metric("call_ret", r.tb_callret, ",");
    metric("call_ret_armed", r.tb_callret_armed, "");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"interpreter\": {\n");
    metric("alu_loop", r.interp_alu, ",");
    metric("alu_loop_no_decode_cache", r.interp_alu_nocache, ",");
    metric("call_ret", r.interp_callret, ",");
    metric("call_ret_armed", r.interp_callret_armed, "");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"ratios\": {\n");
    std::fprintf(f, "    \"tb_speedup_alu\": %.3f,\n", r.tb_speedup_alu);
    std::fprintf(f, "    \"tb_speedup_call_ret\": %.3f,\n",
                 r.tb_speedup_call_ret);
    std::fprintf(f, "    \"tb_speedup_call_ret_armed\": %.3f,\n",
                 r.tb_speedup_call_ret_armed);
    std::fprintf(f, "    \"decode_cache_speedup_alu\": %.3f\n",
                 r.decode_cache_speedup_alu);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"checkpoint\": {\n");
    std::fprintf(f, "    \"full_take_ns\": %.0f,\n", r.ck.full_take_ns);
    std::fprintf(f, "    \"full_pages_copied\": %zu,\n", r.ck.full_pages);
    std::fprintf(f, "    \"incremental_take_ns\": %.0f,\n",
                 r.ck.incremental_take_ns);
    std::fprintf(f, "    \"incremental_dirty_pages\": %zu,\n",
                 r.ck.dirty_pages);
    std::fprintf(f, "    \"rollback_restore_ns\": %.0f\n",
                 r.ck.rollback_restore_ns);
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf(
        "wrote %s (tb %.1f Minstr/s, interp %.1f, tb speedup %.2fx)\n",
        path, r.tb_alu.instr_per_sec / 1e6,
        r.interp_alu.instr_per_sec / 1e6, r.tb_speedup_alu);
}

/** Pull "key": <number> out of @p text; NaN when the key is absent. */
double
json_number(const std::string& text, const char* key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const auto pos = text.find(needle);
    if (pos == std::string::npos)
        return std::nan("");
    return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

/**
 * CI perf gate: compare the fresh speedup ratios against the checked-in
 * baseline. @return the process exit code (0 = pass).
 */
int
run_gate(const BenchResults& r, const char* baseline_path)
{
    std::ifstream in(baseline_path);
    if (!in) {
        std::fprintf(stderr, "gate: cannot read baseline %s\n",
                     baseline_path);
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string base = buf.str();

    double tol_pct = 10.0;
    if (const char* env = std::getenv("RSAFE_BENCH_GATE_TOLERANCE");
        env != nullptr && env[0] != '\0') {
        tol_pct = std::strtod(env, nullptr);
    }
    const double floor = 1.0 - tol_pct / 100.0;

    bool ok = true;
    const auto check = [&](const char* name, double fresh,
                           double hard_floor) {
        const double ref = json_number(base, name);
        const double need =
            std::isnan(ref) ? hard_floor : std::max(ref * floor, hard_floor);
        const bool pass = fresh >= need;
        std::printf("gate: %-26s %6.2fx (baseline %6.2fx, need >= %.2fx) %s\n",
                    name, fresh, std::isnan(ref) ? 0.0 : ref, need,
                    pass ? "ok" : "REGRESSION");
        ok = ok && pass;
    };
    // The TB ALU speedup carries an absolute floor of 2.5x on top of the
    // relative check; the others only guard against relative regressions.
    check("tb_speedup_alu", r.tb_speedup_alu, 2.5);
    check("decode_cache_speedup_alu", r.decode_cache_speedup_alu, 0.0);
    check("tb_speedup_call_ret_armed", r.tb_speedup_call_ret_armed, 0.0);
    return ok ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool json_only = false;
    const char* gate_baseline = nullptr;
    for (int i = 1; i < argc;) {
        const std::string arg = argv[i];
        int consumed = 0;
        if (arg == "--json-only") {
            json_only = true;
            consumed = 1;
        } else if (arg == "--gate" && i + 1 < argc) {
            gate_baseline = argv[i + 1];
            consumed = 2;
        }
        if (consumed == 0) {
            ++i;
            continue;
        }
        for (int j = i; j + consumed < argc; ++j)
            argv[j] = argv[j + consumed];
        argc -= consumed;
    }
    if (!json_only && gate_baseline == nullptr) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
    }
    const BenchResults results = measure_all();
    write_bench_json(results, "BENCH_micro.json");
    if (gate_baseline != nullptr)
        return run_gate(results, gate_baseline);
    return 0;
}
