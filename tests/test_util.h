#ifndef RSAFE_TESTS_TEST_UTIL_H_
#define RSAFE_TESTS_TEST_UTIL_H_

/** @file Shared helpers for VM-level integration tests. */

#include <atomic>
#include <functional>
#include <memory>

#include "common/log.h"
#include "hv/hypervisor.h"
#include "hv/vm.h"
#include "isa/assembler.h"
#include "kernel/layout.h"

namespace rsafe::test {

/** Assemble a user program at the user code base. */
inline isa::Image
user_image(const std::function<void(isa::Assembler&)>& body)
{
    isa::Assembler a(kernel::kUserCodeBase);
    body(a);
    return a.link();
}

/** @p base, except that its @p nth call (1-based) fatal()s. Thread-safe,
 *  so the failure can land on an alarm-replay worker. */
inline std::function<std::unique_ptr<hv::Vm>()>
failing_factory(std::function<std::unique_ptr<hv::Vm>()> base, int nth)
{
    auto calls = std::make_shared<std::atomic<int>>(0);
    return [base = std::move(base), calls, nth] {
        if (calls->fetch_add(1) + 1 == nth)
            fatal("injected VM build failure");
        return base();
    };
}

/** Device config with a quiet NIC and fast disk, for focused tests. */
inline dev::DeviceConfig
quiet_devices()
{
    dev::DeviceConfig config;
    config.seed = 42;
    config.timer_tick_period = 50'000;
    config.nic_mean_gap = 0;
    config.disk_mean_latency = 2'000;
    config.disk_blocks = 64;
    return config;
}

/**
 * Build a finalized VM running @p image with one user task per entry
 * label name given.
 */
inline std::unique_ptr<hv::Vm>
make_test_vm(const isa::Image& image,
             const std::vector<std::string>& entries,
             const dev::DeviceConfig& devices = quiet_devices())
{
    hv::VmConfig config;
    config.devices = devices;
    auto vm = std::make_unique<hv::Vm>(config);
    vm->load_user_image(image);
    for (const auto& entry : entries)
        vm->add_user_task(image.symbol(entry));
    vm->finalize();
    return vm;
}

/** Emit `syscall number` with up to two arguments preloaded. */
inline void
emit_syscall(isa::Assembler& a, Word number)
{
    a.ldi(isa::R0, static_cast<std::int64_t>(number));
    a.syscall();
}

/** Emit the standard task epilogue: sys_exit (never returns). */
inline void
emit_exit(isa::Assembler& a)
{
    emit_syscall(a, kernel::kSysExit);
}

}  // namespace rsafe::test

#endif  // RSAFE_TESTS_TEST_UTIL_H_
