#ifndef RSAFE_CPU_CPU_H_
#define RSAFE_CPU_CPU_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "cpu/ras.h"
#include "cpu/vmcs.h"
#include "isa/encoding.h"
#include "mem/phys_mem.h"

/**
 * @file
 * The virtual guest CPU: a 64-bit uniprocessor interpreter with the
 * RnR-Safe RAS extensions.
 *
 * The CPU executes guest instructions directly against guest memory and
 * reports everything that must leave guest context through the CpuEnv
 * callback interface — the simulator's analogue of a VMExit. Which events
 * exit is controlled by the Vmcs. Cycle costs of VM transitions are
 * charged by the CPU itself so that recording/replay overhead studies see
 * a consistent cost model.
 *
 * Instruction dispatch runs through a per-page predecoded instruction
 * cache: the first execution on a page decodes all of its fixed-width
 * slots into a flat array, and subsequent fetches cost one generation
 * check plus an index instead of a byte fetch and a decode. PhysMem bumps
 * a page's generation whenever its bytes or permissions may have changed
 * (set_perms, restore_page, write_block/write_raw, guest stores to X
 * pages), which invalidates the predecoded copy. The cache is
 * semantically invisible; set_decode_cache_enabled(false) forces the
 * fetch+decode slow path for A/B determinism testing.
 */

namespace rsafe::cpu {

class TbEngine;

/** Privilege modes. */
enum class Mode : std::uint8_t {
    kUser = 0,
    kKernel = 1,
};

/** Why Cpu::run() returned. */
enum class StopReason {
    kHalt,          ///< guest executed halt
    kCycleLimit,    ///< reached the requested cycle bound (host event due)
    kInstrLimit,    ///< reached the requested instruction bound
    kPerfStop,      ///< vmcs.perf_stop reached (replay injection)
    kMemFault,      ///< unrecoverable guest memory fault
    kBadInstr,      ///< undecodable instruction or privilege violation
};

/** Classification of a RAS alarm (the hardware's view). */
enum class RasAlarmKind : std::uint8_t {
    kMispredict = 0,     ///< popped prediction != actual target
    kUnderflow = 1,      ///< RAS empty at a return
    kWhitelistMiss = 2,  ///< whitelisted ret with an illegal target
};

/** Details of a RAS alarm surfaced to the hypervisor. */
struct RasAlarm {
    RasAlarmKind kind = RasAlarmKind::kMispredict;
    Addr ret_pc = 0;      ///< PC of the return instruction
    Addr predicted = 0;   ///< RAS prediction (0 on underflow)
    Addr actual = 0;      ///< target taken from the software stack
    Addr sp_after = 0;    ///< stack pointer after the pop
    Mode mode = Mode::kKernel;
};

/** One traced call/return event (alarm-replayer instrumentation). */
struct CallRetEvent {
    bool is_call = false;
    Addr pc = 0;          ///< address of the call/ret instruction
    Addr target = 0;      ///< call target or ret destination
    Addr link = 0;        ///< for calls: the pushed return address
    Mode mode = Mode::kKernel;
};

/**
 * Hypervisor-side handler of VM exits.
 *
 * Synchronous mediated events (rdtsc, pio, mmio) are completed by the
 * environment and their results returned to the CPU; notification events
 * (breakpoints, alarms, evictions, call/ret traces, interrupt delivery)
 * only inform the environment.
 */
class CpuEnv {
  public:
    virtual ~CpuEnv() = default;

    /** Mediated rdtsc: supply the timestamp value. */
    virtual Word on_rdtsc() = 0;
    /** Mediated pio read: supply the port value. */
    virtual Word on_io_in(std::uint16_t port) = 0;
    /** Mediated pio write. */
    virtual void on_io_out(std::uint16_t port, Word value) = 0;
    /** Mediated MMIO read. */
    virtual Word on_mmio_read(Addr addr) = 0;
    /** Mediated MMIO write (applies any DMA side effects itself). */
    virtual void on_mmio_write(Addr addr, Word value) = 0;
    /** PC breakpoint hit (fires before the instruction executes). */
    virtual void on_breakpoint(Addr pc) = 0;
    /** RAS alarm raised (controls.ras_alarm_enabled). */
    virtual void on_ras_alarm(const RasAlarm& alarm) = 0;
    /** RAS eviction exit (controls.ras_evict_exit). */
    virtual void on_ras_evict(Addr evicted) = 0;
    /** Kernel call/ret trace (controls.trap_kernel_call_ret). */
    virtual void on_call_ret(const CallRetEvent& event) = 0;
    /**
     * Indirect branch/call notification (controls.trap_indirect_branch);
     * the hardware JOP filter hooks in here.
     */
    virtual void on_indirect_branch(Addr pc, Addr target, bool is_call) {}

    /**
     * A fetch hit a W^X-watched page (wx_fetch_exit); the watch on the
     * page is already consumed and kVmTransition charged. @p pc is the
     * not-yet-executed fetch target.
     */
    virtual void on_wx_fetch(Addr pc) {}
    /** A pending virtual interrupt was delivered to the guest. */
    virtual void on_interrupt_delivered(std::uint8_t vector) {}
};

/** Unmediated (paravirtual) device access interface. */
class PvBus {
  public:
    virtual ~PvBus() = default;
    virtual Word pv_rdtsc() = 0;
    virtual Word pv_io_in(std::uint16_t port) = 0;
    virtual void pv_io_out(std::uint16_t port, Word value) = 0;
    virtual Word pv_mmio_read(Addr addr) = 0;
    virtual void pv_mmio_write(Addr addr, Word value) = 0;
};

/** Architectural register state (checkpointed/restored wholesale). */
struct CpuState {
    std::array<Word, isa::kNumRegs> regs{};
    Addr pc = 0;
    Addr sp = 0;
    Mode mode = Mode::kKernel;
    bool iflag = false;   ///< guest interrupt-enable flag
    bool halted = false;
};

/** Event counters the figures are computed from. */
struct CpuStats {
    InstrCount instructions = 0;
    InstrCount kernel_instructions = 0;
    std::uint64_t calls = 0;
    std::uint64_t rets = 0;
    std::uint64_t kernel_call_rets = 0;
    std::uint64_t ras_hits = 0;
    std::uint64_t ras_hits_restored = 0;   ///< BackRAS-suppressed (Fig. 8)
    std::uint64_t ras_whitelisted = 0;     ///< whitelist-suppressed (Fig. 8)
    std::uint64_t ras_alarms = 0;
    std::uint64_t ras_evictions = 0;
    std::uint64_t interrupts_delivered = 0;
    std::uint64_t io_accesses = 0;
    std::uint64_t rdtsc_reads = 0;
};

/** Guest memory-layout constants shared with the kernel builder. */
inline constexpr Addr kIvtBase = 0x1000;  ///< 8-byte handler slots
inline constexpr std::uint8_t kIvtSyscallSlot = 7;

/** The virtual CPU. */
class Cpu {
  public:
    /**
     * @param mem        guest physical memory.
     * @param ras_depth  hardware RAS depth (Section 7.5 default: 48).
     */
    Cpu(mem::PhysMem* mem, std::size_t ras_depth = Ras::kDefaultDepth);
    ~Cpu();

    /** Bind the VM-exit handler (must outlive the CPU). */
    void set_env(CpuEnv* env) { env_ = env; }

    /** Bind the paravirtual bus used when exit_on_io is false. */
    void set_pv_bus(PvBus* bus) { pv_bus_ = bus; }

    /** The control structure the hypervisor programs. */
    Vmcs& vmcs() { return vmcs_; }
    const Vmcs& vmcs() const { return vmcs_; }

    /** The hardware RAS (for microcode save/restore by the hypervisor). */
    Ras& ras() { return ras_; }
    const Ras& ras() const { return ras_; }

    /** Architectural state access. @{ */
    CpuState& state() { return state_; }
    const CpuState& state() const { return state_; }
    Word reg(std::size_t idx) const { return state_.regs[idx]; }
    void set_reg(std::size_t idx, Word value) { state_.regs[idx] = value; }
    /** @} */

    /** Cycle and instruction clocks. @{ */
    Cycles cycles() const { return cycles_; }
    InstrCount icount() const { return icount_; }
    void add_cycles(Cycles n) { cycles_ += n; }
    /** Reset the clocks (checkpoint restore). */
    void set_clocks(Cycles cycles, InstrCount icount)
    {
        cycles_ = cycles;
        icount_ = icount;
    }
    /** @} */

    /** Accumulated event counters. */
    const CpuStats& stats() const { return stats_; }
    CpuStats& stats() { return stats_; }

    /**
     * Execute until a stop condition is met. Runs translated blocks
     * (run_tb) while the engine is enabled and nothing needs a check
     * between instructions; otherwise one exec_one per instruction.
     *
     * @param stop_cycles  return kCycleLimit once cycles() >= this
     *                     (the next host device event).
     * @param stop_icount  return kInstrLimit once icount() >= this.
     */
    StopReason run(Cycles stop_cycles, InstrCount stop_icount);

    /**
     * Tighten the current run's cycle stop. Called from within a VM exit
     * when a mediated device access rescheduled the next host event to an
     * earlier time (e.g., the guest just started a short DMA transfer).
     */
    void tighten_stop(Cycles stop)
    {
        if (stop < run_stop_cycles_)
            run_stop_cycles_ = stop;
    }

    /** Execute exactly one instruction (replay single-stepping). */
    StopReason step();

    /** @return a fault description after kMemFault/kBadInstr. */
    const std::string& fault_reason() const { return fault_reason_; }

    /**
     * Toggle the predecoded-instruction cache (on by default).
     * Execution is bit-identical either way; the toggle exists for A/B
     * testing.
     */
    void set_decode_cache_enabled(bool enabled)
    {
        decode_cache_enabled_ = enabled;
        if (!enabled) {
            cur_page_base_ = ~static_cast<Addr>(0);
            cur_dp_ = nullptr;
            cur_gen_ = nullptr;
        }
    }
    bool decode_cache_enabled() const { return decode_cache_enabled_; }

    /**
     * Toggle the translation-block engine (on by default). Off, run()
     * retires every instruction through exec_one, the reference
     * interpreter. Execution is bit-identical either way; the toggle
     * exists so tests can check the engine against that reference.
     */
    void set_tb_enabled(bool enabled) { tb_enabled_ = enabled; }
    bool tb_enabled() const { return tb_enabled_; }

    /** The translation-block engine (metrics export, tests). */
    TbEngine& tb_engine() { return *tb_; }
    const TbEngine& tb_engine() const { return *tb_; }

  private:
    enum class StepResult { kOk, kHalt, kFault, kBadInstr };

    /** Instruction slots per page (fixed-width encoding). */
    static constexpr std::size_t kInstrsPerPage = kPageSize / kInstrBytes;

    /** Predecoded copy of one executable page. */
    struct DecodedPage {
        std::uint64_t gen = 0;  ///< PhysMem::page_gen at predecode time
        std::array<isa::Instr, kInstrsPerPage> instrs;
        std::array<std::uint8_t, kInstrsPerPage> valid;  ///< decodable slot
    };

    StepResult exec_one();
    StepResult run_tb(InstrCount budget);  // defined in tb_engine.cc
    const isa::Instr* cached_instr(Addr pc);
    const DecodedPage* cached_page(Addr page);
    DecodedPage* predecode_page(Addr page);
    bool deliver_pending_irq();
    void deliver_interrupt_frame(Addr vector_slot);
    StepResult do_ret();
    void ras_call_push(Addr link);
    bool mem_read(Addr addr, std::size_t len, Word* out);
    bool mem_write(Addr addr, std::size_t len, Word value);
    bool stack_push(Word value);
    bool stack_pop(Word* out);
    bool priv_check(const isa::Instr& instr);

    mem::PhysMem* mem_;
    CpuEnv* env_ = nullptr;
    PvBus* pv_bus_ = nullptr;
    Vmcs vmcs_;
    Ras ras_;
    CpuState state_;
    Cycles cycles_ = 0;
    InstrCount icount_ = 0;
    Cycles run_stop_cycles_ = ~static_cast<Cycles>(0);
    CpuStats stats_;
    std::string fault_reason_;
    std::vector<std::unique_ptr<DecodedPage>> decode_cache_;
    bool decode_cache_enabled_ = true;
    std::unique_ptr<TbEngine> tb_;
    bool tb_enabled_ = true;
    // One-entry fetch cache: consecutive instructions almost always sit
    // on the same page, so remember the last predecoded page and its
    // generation-counter location for a two-compare fast path.
    Addr cur_page_base_ = ~static_cast<Addr>(0);
    const DecodedPage* cur_dp_ = nullptr;
    const std::uint64_t* cur_gen_ = nullptr;
};

}  // namespace rsafe::cpu

#endif  // RSAFE_CPU_CPU_H_
