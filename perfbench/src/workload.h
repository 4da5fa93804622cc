#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "ledger.h"

/**
 * @file
 * The benchmark's workloads and their output checks.
 *
 * Every workload runs through the public pipeline API: run() drives
 * RnrSafeFramework::run. compose() does the same work as the serial
 * composition of the public layer calls, each wrapped in a ledger span.
 */

namespace perfbench {

/** Everything a pipeline run must reproduce, bit for bit. */
struct Fingerprint {
    /** "log_index:cause:is_attack:ret_pc:tid" per analysis, in order. */
    std::vector<std::string> verdicts;
    std::uint64_t cr_state_hash = 0;
    std::vector<std::pair<std::string, std::uint64_t>> snapshot;
    std::uint64_t record_icount = 0;
    std::uint64_t record_cycles = 0;
    std::uint64_t cr_icount = 0;
    std::uint64_t cr_cycles = 0;
    std::uint64_t log_records = 0;

    /** @return "" when equal, else the first differing field. */
    std::string diff(const Fingerprint& other, bool with_snapshot) const;
};

/** What @p result must reproduce of a reference run. */
Fingerprint fingerprint(const rsafe::core::FrameworkResult& result);

/**
 * One benchmark workload: a small population of guest programs drawn
 * from the workload seed, run in rotation. A seed changes a generated
 * program's event mix and with it the host cost of a run by up to 2x;
 * the median over a rotation of several programs moves far less from
 * seed to seed than any single program does.
 */
class Workload {
  public:
    /** The workload names, in BENCHMARK.json order. */
    static const std::vector<std::string>& names();

    /** Workload @p name for seed @p seed; null if the name is unknown.
     *  Cheap: programs are built by prepare(). */
    static std::unique_ptr<Workload> create(const std::string& name,
                                            std::uint64_t seed);

    std::uint64_t seed() const { return seed_; }
    /** True when --seed reaches the generated guest programs. */
    bool seeded() const { return seeded_; }

    /** Programs in the rotation. */
    std::size_t programs() const { return programs_.size(); }

    /** Build program @p p's VM factory (sizing it for its seed). */
    void prepare(std::size_t p);

    /** The full pipeline through the public API, in @p mode. */
    rsafe::core::FrameworkResult run(std::size_t p,
                                     rsafe::core::PipelineMode mode);

    /** The same work as the serial composition of the layer calls,
     *  under one root span "run". */
    rsafe::core::FrameworkResult compose(std::size_t p, Ledger* ledger);

    /** @return "" if @p result meets program @p p's ground truth. */
    std::string check_truth(std::size_t p,
                            const rsafe::core::FrameworkResult& result) const;

    /** VmFactory() calls made so far (through the wrapped factories). */
    std::uint64_t vm_builds() const { return builds_->load(); }

    /** Alarm-replayer worker threads the concurrent pipeline uses. */
    static constexpr std::size_t kArWorkers = 2;

  private:
    struct Program {
        std::uint64_t seed = 0;  ///< offset from the profile's own seed
        rsafe::core::VmFactory factory;
        /** rop-storm ground truth: the hijacked return in k_vulnerable. */
        rsafe::Addr vulnerable_ret = 0;
    };

    Workload() = default;
    rsafe::core::FrameworkConfig config(rsafe::core::PipelineMode mode) const;
    std::unique_ptr<rsafe::hv::Vm> build_vm(std::size_t p, Ledger* ledger);

    std::string name_;
    std::uint64_t seed_ = 0;
    bool seeded_ = false;
    std::vector<Program> programs_;
    std::shared_ptr<std::atomic<std::uint64_t>> builds_ =
        std::make_shared<std::atomic<std::uint64_t>>(0);
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
