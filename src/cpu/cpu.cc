#include "cpu/cpu.h"

#include <algorithm>

#include "common/log.h"
#include "cpu/tb_engine.h"
#include "dev/device_hub.h"

namespace rsafe::cpu {

using isa::Opcode;

Cpu::Cpu(mem::PhysMem* mem, std::size_t ras_depth)
    : mem_(mem), ras_(ras_depth)
{
    if (mem_ == nullptr)
        fatal("Cpu: null memory");
    decode_cache_.resize(mem_->num_pages());
    tb_ = std::make_unique<TbEngine>(mem_);
}

Cpu::~Cpu() = default;

Cpu::DecodedPage*
Cpu::predecode_page(Addr page)
{
    // Only executable pages are worth predecoding; a fetch from anywhere
    // else takes the slow path and faults there with the right reason.
    if (!(mem_->perms_at(page * kPageSize) & mem::kPermExec))
        return nullptr;
    auto& slot = decode_cache_[page];
    if (slot == nullptr)
        slot = std::make_unique<DecodedPage>();
    const std::uint8_t* bytes = mem_->page_data(page);
    for (std::size_t i = 0; i < kInstrsPerPage; ++i) {
        slot->valid[i] =
            isa::decode(bytes + i * kInstrBytes, &slot->instrs[i]) ? 1 : 0;
    }
    slot->gen = mem_->page_gen(page);
    return slot.get();
}

const Cpu::DecodedPage*
Cpu::cached_page(Addr page)
{
    if (!decode_cache_enabled_)
        return nullptr;
    if (page >= decode_cache_.size()) [[unlikely]]
        return nullptr;
    DecodedPage* dp = decode_cache_[page].get();
    if (dp == nullptr || dp->gen != mem_->page_gen(page)) {
        dp = predecode_page(page);
        if (dp == nullptr)
            return nullptr;
    }
    cur_page_base_ = page * kPageSize;
    cur_dp_ = dp;
    cur_gen_ = mem_->page_gen_ptr(page);
    return dp;
}

const isa::Instr*
Cpu::cached_instr(Addr pc)
{
    // Single-compare fast path: low bits of cur_page_base_ are zero, so
    // this mask matches iff pc is on the cached page AND slot-aligned.
    constexpr Addr kPageAndAlignMask =
        ~static_cast<Addr>(kPageSize - 1) | (kInstrBytes - 1);
    const DecodedPage* dp;
    if ((pc & kPageAndAlignMask) == cur_page_base_ &&
        cur_dp_->gen == *cur_gen_) [[likely]] {
        dp = cur_dp_;
    } else {
        // Unaligned PCs (corrupted control flow) take the raw-fetch path,
        // which reads the same bytes a real fetch would.
        if ((pc & (kInstrBytes - 1)) != 0) [[unlikely]]
            return nullptr;
        dp = cached_page(page_of(pc));
        if (dp == nullptr)
            return nullptr;
    }
    const std::size_t slot = page_offset(pc) / kInstrBytes;
    if (!dp->valid[slot]) [[unlikely]]
        return nullptr;
    return &dp->instrs[slot];
}

bool
Cpu::mem_read(Addr addr, std::size_t len, Word* out)
{
    const auto result = mem_->read(addr, len, out);
    if (result != mem::MemResult::kOk) {
        fault_reason_ = strcat_args(
            "read fault at 0x", std::hex, addr, " pc=0x", state_.pc,
            result == mem::MemResult::kNoPerm ? " (perm)" : " (range)");
        return false;
    }
    return true;
}

bool
Cpu::mem_write(Addr addr, std::size_t len, Word value)
{
    const auto result = mem_->write(addr, len, value);
    if (result != mem::MemResult::kOk) {
        fault_reason_ = strcat_args(
            "write fault at 0x", std::hex, addr, " pc=0x", state_.pc,
            result == mem::MemResult::kNoPerm ? " (perm)" : " (range)");
        return false;
    }
    return true;
}

bool
Cpu::stack_push(Word value)
{
    state_.sp -= 8;
    return mem_write(state_.sp, 8, value);
}

bool
Cpu::stack_pop(Word* out)
{
    if (!mem_read(state_.sp, 8, out))
        return false;
    state_.sp += 8;
    return true;
}

bool
Cpu::priv_check(const isa::Instr& instr)
{
    if (state_.mode == Mode::kKernel)
        return true;
    // Note: kSetsp is deliberately unprivileged (like `mov rsp` on x86);
    // the kernel's context-switch SETSP is special because of the PC
    // breakpoint the hypervisor sets on it, not because of the opcode.
    switch (instr.op) {
      case Opcode::kHalt:
      case Opcode::kIret:
      case Opcode::kCli:
      case Opcode::kSti:
        fault_reason_ = strcat_args("privileged instruction '",
                                    isa::opcode_name(instr.op),
                                    "' in user mode, pc=0x", std::hex,
                                    state_.pc);
        return false;
      default:
        return true;
    }
}

void
Cpu::deliver_interrupt_frame(Addr vector_slot)
{
    const Word flags = (state_.mode == Mode::kKernel ? 1 : 0) |
                       (state_.iflag ? 2 : 0);
    // A failed push here means the guest stack itself is unusable; the
    // surrounding caller surfaces it as a fault.
    stack_push(flags);
    stack_push(state_.pc);
    state_.mode = Mode::kKernel;
    state_.iflag = false;
    state_.pc = mem_->read_raw(kIvtBase + 8 * vector_slot, 8);
}

bool
Cpu::deliver_pending_irq()
{
    if (!vmcs_.pending_irq || !state_.iflag)
        return false;
    const std::uint8_t vector = *vmcs_.pending_irq;
    vmcs_.pending_irq.reset();
    deliver_interrupt_frame(vector);
    ++stats_.interrupts_delivered;
    if (env_ != nullptr)
        env_->on_interrupt_delivered(vector);
    return true;
}

void
Cpu::ras_call_push(Addr link)
{
    const auto evicted = ras_.push(link);
    if (evicted && vmcs_.controls.ras_evict_exit) {
        ++stats_.ras_evictions;
        cycles_ += Costs::kVmTransition;
        env_->on_ras_evict(*evicted);
    }
}

Cpu::StepResult
Cpu::do_ret()
{
    const Addr ret_pc = state_.pc;
    Word target;
    if (!stack_pop(&target))
        return StepResult::kFault;

    ras_.set_whitelist_enabled(vmcs_.controls.whitelist_enabled);
    Addr predicted = 0;
    const RasPredict outcome = ras_.predict(ret_pc, target, &predicted);
    switch (outcome) {
      case RasPredict::kHit:
        ++stats_.ras_hits;
        break;
      case RasPredict::kHitRestored:
        ++stats_.ras_hits;
        ++stats_.ras_hits_restored;
        break;
      case RasPredict::kWhitelisted:
        ++stats_.ras_whitelisted;
        break;
      case RasPredict::kMispredict:
      case RasPredict::kUnderflow:
      case RasPredict::kWhitelistMiss: {
        if (vmcs_.controls.ras_alarm_enabled) {
            ++stats_.ras_alarms;
            cycles_ += Costs::kVmTransition;
            RasAlarm alarm;
            alarm.kind = outcome == RasPredict::kUnderflow
                             ? RasAlarmKind::kUnderflow
                             : outcome == RasPredict::kWhitelistMiss
                                   ? RasAlarmKind::kWhitelistMiss
                                   : RasAlarmKind::kMispredict;
            alarm.ret_pc = ret_pc;
            alarm.predicted = predicted;
            alarm.actual = target;
            alarm.sp_after = state_.sp;
            alarm.mode = state_.mode;
            env_->on_ras_alarm(alarm);
        }
        break;
      }
    }

    const bool trace_ret =
        (vmcs_.controls.trap_kernel_call_ret &&
         state_.mode == Mode::kKernel) ||
        (vmcs_.controls.trap_user_call_ret && state_.mode == Mode::kUser);
    if (trace_ret) {
        if (state_.mode == Mode::kKernel)
            ++stats_.kernel_call_rets;
        cycles_ += Costs::kVmTransition;
        CallRetEvent event;
        event.is_call = false;
        event.pc = ret_pc;
        event.target = target;
        event.mode = state_.mode;
        env_->on_call_ret(event);
    }
    state_.pc = target;
    return StepResult::kOk;
}

Cpu::StepResult
Cpu::exec_one()
{
    if (vmcs_.controls.wx_fetch_exit &&
        !vmcs_.wx_watch_pages.empty()) [[unlikely]] {
        // W^X fetch watch: exit before executing the first instruction
        // fetched from a page written since it was armed. The watch is
        // consumed here, so the icount recorded by the environment is
        // the position *before* the fetch — replay stops with the
        // injected/patched code still unexecuted and inspectable.
        const auto it = vmcs_.wx_watch_pages.find(page_of(state_.pc));
        if (it != vmcs_.wx_watch_pages.end()) {
            vmcs_.wx_watch_pages.erase(it);
            cycles_ += Costs::kVmTransition;
            env_->on_wx_fetch(state_.pc);
        }
    }

    isa::Instr instr;
    const isa::Instr* instr_ptr = cached_instr(state_.pc);
    if (instr_ptr != nullptr) [[likely]] {
        instr = *instr_ptr;  // 8 bytes; keeps the fields in registers
    } else {
        std::uint8_t raw[kInstrBytes];
        const auto fetch_result = mem_->fetch(state_.pc, raw);
        if (fetch_result != mem::MemResult::kOk) {
            fault_reason_ = strcat_args(
                "fetch fault at pc=0x", std::hex, state_.pc,
                fetch_result == mem::MemResult::kNoPerm ? " (perm)"
                                                        : " (range)");
            return StepResult::kFault;
        }
        if (!isa::decode(raw, &instr)) {
            fault_reason_ = strcat_args("undecodable instruction at pc=0x",
                                        std::hex, state_.pc);
            return StepResult::kBadInstr;
        }
    }
    if (!priv_check(instr))
        return StepResult::kBadInstr;

    if (state_.mode == Mode::kKernel)
        ++stats_.kernel_instructions;
    ++stats_.instructions;
    ++icount_;
    ++cycles_;

    auto& regs = state_.regs;
    const Addr next_pc = state_.pc + kInstrBytes;
    const bool mediated_io = vmcs_.controls.exit_on_io;

    switch (instr.op) {
      case Opcode::kNop:
        break;
      case Opcode::kHalt:
        state_.halted = true;
        return StepResult::kHalt;

      case Opcode::kAdd: regs[instr.rd] = regs[instr.rs1] + regs[instr.rs2]; break;
      case Opcode::kSub: regs[instr.rd] = regs[instr.rs1] - regs[instr.rs2]; break;
      case Opcode::kMul: regs[instr.rd] = regs[instr.rs1] * regs[instr.rs2]; break;
      case Opcode::kDivu:
        regs[instr.rd] = regs[instr.rs2] == 0
                             ? ~static_cast<Word>(0)
                             : regs[instr.rs1] / regs[instr.rs2];
        break;
      case Opcode::kAnd: regs[instr.rd] = regs[instr.rs1] & regs[instr.rs2]; break;
      case Opcode::kOr:  regs[instr.rd] = regs[instr.rs1] | regs[instr.rs2]; break;
      case Opcode::kXor: regs[instr.rd] = regs[instr.rs1] ^ regs[instr.rs2]; break;
      case Opcode::kShl: regs[instr.rd] = regs[instr.rs1] << (regs[instr.rs2] & 63); break;
      case Opcode::kShr: regs[instr.rd] = regs[instr.rs1] >> (regs[instr.rs2] & 63); break;

      case Opcode::kAddi: regs[instr.rd] = regs[instr.rs1] + static_cast<Word>(instr.simm()); break;
      case Opcode::kAndi: regs[instr.rd] = regs[instr.rs1] & static_cast<Word>(instr.simm()); break;
      case Opcode::kOri:  regs[instr.rd] = regs[instr.rs1] | static_cast<Word>(instr.simm()); break;
      case Opcode::kXori: regs[instr.rd] = regs[instr.rs1] ^ static_cast<Word>(instr.simm()); break;
      case Opcode::kShli: regs[instr.rd] = regs[instr.rs1] << (instr.imm & 63); break;
      case Opcode::kShri: regs[instr.rd] = regs[instr.rs1] >> (instr.imm & 63); break;

      case Opcode::kLdi:
        regs[instr.rd] = static_cast<Word>(instr.simm());
        break;
      case Opcode::kLdiu:
        regs[instr.rd] = (regs[instr.rd] << 32) |
                         static_cast<Word>(static_cast<std::uint32_t>(instr.imm));
        break;
      case Opcode::kMov:
        regs[instr.rd] = regs[instr.rs1];
        break;

      case Opcode::kLd:
      case Opcode::kLdb: {
        const Addr addr = regs[instr.rs1] + static_cast<Word>(instr.simm());
        const std::size_t len = instr.op == Opcode::kLd ? 8 : 1;
        if (dev::is_mmio(addr)) {
            ++stats_.io_accesses;
            if (mediated_io) {
                cycles_ += Costs::kVmTransition;
                regs[instr.rd] = env_->on_mmio_read(addr);
            } else {
                cycles_ += Costs::kPvIo;
                regs[instr.rd] = pv_bus_->pv_mmio_read(addr);
            }
        } else {
            Word value;
            if (!mem_read(addr, len, &value))
                return StepResult::kFault;
            regs[instr.rd] = value;
        }
        break;
      }
      case Opcode::kSt:
      case Opcode::kStb: {
        const Addr addr = regs[instr.rs1] + static_cast<Word>(instr.simm());
        const std::size_t len = instr.op == Opcode::kSt ? 8 : 1;
        const Word value = instr.op == Opcode::kSt
                               ? regs[instr.rs2]
                               : (regs[instr.rs2] & 0xff);
        if (dev::is_mmio(addr)) {
            ++stats_.io_accesses;
            if (mediated_io) {
                cycles_ += Costs::kVmTransition;
                env_->on_mmio_write(addr, value);
            } else {
                cycles_ += Costs::kPvIo;
                pv_bus_->pv_mmio_write(addr, value);
            }
        } else {
            if (!mem_write(addr, len, value))
                return StepResult::kFault;
        }
        break;
      }

      case Opcode::kBeq:
        if (regs[instr.rs1] == regs[instr.rs2]) { state_.pc = instr.uimm(); return StepResult::kOk; }
        break;
      case Opcode::kBne:
        if (regs[instr.rs1] != regs[instr.rs2]) { state_.pc = instr.uimm(); return StepResult::kOk; }
        break;
      case Opcode::kBlt:
        if (static_cast<std::int64_t>(regs[instr.rs1]) <
            static_cast<std::int64_t>(regs[instr.rs2])) { state_.pc = instr.uimm(); return StepResult::kOk; }
        break;
      case Opcode::kBge:
        if (static_cast<std::int64_t>(regs[instr.rs1]) >=
            static_cast<std::int64_t>(regs[instr.rs2])) { state_.pc = instr.uimm(); return StepResult::kOk; }
        break;
      case Opcode::kBltu:
        if (regs[instr.rs1] < regs[instr.rs2]) { state_.pc = instr.uimm(); return StepResult::kOk; }
        break;
      case Opcode::kBgeu:
        if (regs[instr.rs1] >= regs[instr.rs2]) { state_.pc = instr.uimm(); return StepResult::kOk; }
        break;

      case Opcode::kJmp:
        state_.pc = instr.uimm();
        return StepResult::kOk;
      case Opcode::kJmpr:
        if (vmcs_.controls.trap_indirect_branch)
            env_->on_indirect_branch(state_.pc, regs[instr.rs1], false);
        state_.pc = regs[instr.rs1];
        return StepResult::kOk;

      case Opcode::kCall:
      case Opcode::kCallr: {
        const Addr target = instr.op == Opcode::kCall ? instr.uimm()
                                                      : regs[instr.rs1];
        if (instr.op == Opcode::kCallr &&
            vmcs_.controls.trap_indirect_branch) {
            env_->on_indirect_branch(state_.pc, target, true);
        }
        if (!stack_push(next_pc))
            return StepResult::kFault;
        ras_call_push(next_pc);
        ++stats_.calls;
        const bool trace_call =
            (vmcs_.controls.trap_kernel_call_ret &&
             state_.mode == Mode::kKernel) ||
            (vmcs_.controls.trap_user_call_ret &&
             state_.mode == Mode::kUser);
        if (trace_call) {
            if (state_.mode == Mode::kKernel)
                ++stats_.kernel_call_rets;
            cycles_ += Costs::kVmTransition;
            CallRetEvent event;
            event.is_call = true;
            event.pc = state_.pc;
            event.target = target;
            event.link = next_pc;
            event.mode = state_.mode;
            env_->on_call_ret(event);
        }
        state_.pc = target;
        return StepResult::kOk;
      }
      case Opcode::kRet:
        ++stats_.rets;
        return do_ret();

      case Opcode::kPush:
        if (!stack_push(regs[instr.rs1]))
            return StepResult::kFault;
        break;
      case Opcode::kPop: {
        Word value;
        if (!stack_pop(&value))
            return StepResult::kFault;
        regs[instr.rd] = value;
        break;
      }

      case Opcode::kGetsp:
        regs[instr.rd] = state_.sp;
        break;
      case Opcode::kSetsp:
        state_.sp = regs[instr.rs1];
        break;
      case Opcode::kAddsp:
        state_.sp += static_cast<Word>(instr.simm());
        break;

      case Opcode::kRdtsc:
        ++stats_.rdtsc_reads;
        if (vmcs_.controls.exit_on_rdtsc) {
            cycles_ += Costs::kVmTransition;
            regs[instr.rd] = env_->on_rdtsc();
        } else {
            regs[instr.rd] = pv_bus_->pv_rdtsc();
        }
        break;

      case Opcode::kIn: {
        const auto port = static_cast<std::uint16_t>(instr.imm);
        ++stats_.io_accesses;
        if (mediated_io) {
            cycles_ += Costs::kVmTransition;
            regs[instr.rd] = env_->on_io_in(port);
        } else {
            cycles_ += Costs::kPvIo;
            regs[instr.rd] = pv_bus_->pv_io_in(port);
        }
        break;
      }
      case Opcode::kOut: {
        const auto port = static_cast<std::uint16_t>(instr.imm);
        ++stats_.io_accesses;
        if (mediated_io) {
            cycles_ += Costs::kVmTransition;
            env_->on_io_out(port, regs[instr.rs1]);
        } else {
            cycles_ += Costs::kPvIo;
            pv_bus_->pv_io_out(port, regs[instr.rs1]);
        }
        break;
      }

      case Opcode::kSyscall: {
        // Enter the kernel through the IVT's syscall slot; the frame layout
        // matches interrupt delivery so the kernel shares one exit path.
        const Addr saved_pc = next_pc;
        const Word flags = (state_.mode == Mode::kKernel ? 1 : 0) |
                           (state_.iflag ? 2 : 0);
        if (!stack_push(flags))
            return StepResult::kFault;
        if (!stack_push(saved_pc))
            return StepResult::kFault;
        state_.mode = Mode::kKernel;
        state_.iflag = false;
        state_.pc = mem_->read_raw(kIvtBase + 8 * kIvtSyscallSlot, 8);
        return StepResult::kOk;
      }
      case Opcode::kIret: {
        Word saved_pc, flags;
        if (!stack_pop(&saved_pc) || !stack_pop(&flags))
            return StepResult::kFault;
        state_.mode = (flags & 1) ? Mode::kKernel : Mode::kUser;
        state_.iflag = (flags & 2) != 0;
        state_.pc = saved_pc;
        return StepResult::kOk;
      }
      case Opcode::kCli:
        state_.iflag = false;
        break;
      case Opcode::kSti:
        state_.iflag = true;
        break;

      case Opcode::kCount:
        fault_reason_ = "kCount executed";
        return StepResult::kBadInstr;
    }

    state_.pc = next_pc;
    return StepResult::kOk;
}

StopReason
Cpu::run(Cycles stop_cycles, InstrCount stop_icount)
{
    if (env_ == nullptr)
        fatal("Cpu::run: no environment bound");
    run_stop_cycles_ = stop_cycles;
    while (true) {
        if (state_.halted)
            return StopReason::kHalt;
        if (icount_ >= vmcs_.perf_stop)
            return StopReason::kPerfStop;
        if (cycles_ >= run_stop_cycles_)
            return StopReason::kCycleLimit;
        if (icount_ >= stop_icount)
            return StopReason::kInstrLimit;

        if (vmcs_.pending_irq) [[unlikely]]
            deliver_pending_irq();

        if (!vmcs_.breakpoints.empty() &&
            vmcs_.breakpoints.count(state_.pc)) [[unlikely]] {
            cycles_ += Costs::kVmTransition;
            env_->on_breakpoint(state_.pc);
        }

        StepResult result;
        if (tb_enabled_ && !vmcs_.pending_irq &&
            !vmcs_.controls.trap_indirect_branch &&
            !vmcs_.controls.wx_fetch_exit) [[likely]] {
            // Translated blocks. With no interrupt awaiting delivery and
            // the (cycle-free) indirect-branch trap off, nothing can
            // demand attention between instructions except a VM exit —
            // and every VM exit charges extra cycles, so "cycles
            // advanced by exactly 1" proves the instruction was pure and
            // the stop conditions are untouched. Execute up to the
            // nearest limit and let the outer loop re-check the world
            // after any exit. run_tb cuts blocks at armed breakpoints
            // and returns here so the hook above fires exactly as in
            // single-step mode. Otherwise (TB off, or a condition that
            // needs a check between instructions) retire one
            // instruction through exec_one, the reference interpreter.
            InstrCount budget =
                std::min(stop_icount, vmcs_.perf_stop) - icount_;
            // The breakpoint hook and IRQ delivery above charge cycles
            // after the loop-top stop check, so cycles_ may already sit
            // past the stop here; a raw subtraction would wrap and void
            // the cycle deadline for the whole batch. Keep a one-
            // instruction floor so the hooked instruction still retires
            // (re-entering at the same pc would re-fire the hook).
            const Cycles cycle_budget =
                run_stop_cycles_ > cycles_ ? run_stop_cycles_ - cycles_ : 1;
            if (budget > cycle_budget)
                budget = cycle_budget;  // cycles grow >= 1 per instruction
            result = run_tb(budget);
        } else {
            result = exec_one();
        }
        switch (result) {
          case StepResult::kOk:
            break;
          case StepResult::kHalt:
            return StopReason::kHalt;
          case StepResult::kFault:
            return StopReason::kMemFault;
          case StepResult::kBadInstr:
            return StopReason::kBadInstr;
        }
    }
}

StopReason
Cpu::step()
{
    if (env_ == nullptr)
        fatal("Cpu::step: no environment bound");
    if (state_.halted)
        return StopReason::kHalt;

    deliver_pending_irq();

    if (!vmcs_.breakpoints.empty() && vmcs_.breakpoints.count(state_.pc)) {
        cycles_ += Costs::kVmTransition;
        env_->on_breakpoint(state_.pc);
    }

    switch (exec_one()) {
      case StepResult::kOk:
        return StopReason::kInstrLimit;
      case StepResult::kHalt:
        return StopReason::kHalt;
      case StepResult::kFault:
        return StopReason::kMemFault;
      case StepResult::kBadInstr:
        return StopReason::kBadInstr;
    }
    return StopReason::kInstrLimit;
}

}  // namespace rsafe::cpu
