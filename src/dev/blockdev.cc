#include "dev/blockdev.h"

#include "common/log.h"

namespace rsafe::dev {

BlockDev::BlockDev(mem::PageStore* disk, std::uint64_t seed,
                   Cycles mean_latency)
    : disk_(disk), rng_(seed), mean_latency_(mean_latency)
{
    if (disk_ == nullptr)
        fatal("BlockDev: null disk");
}

void
BlockDev::go(Cycles now, bool is_read,
             const std::vector<std::uint8_t>& write_payload)
{
    if (in_flight_) {
        // Real controllers would flag an error; the guest driver always
        // polls status first, so treat this as a guest bug.
        warn("BlockDev: command issued while busy; dropping");
        return;
    }
    if (cmd_block_ >= disk_->num_pages()) {
        warn("BlockDev: block out of range; dropping command");
        return;
    }
    InFlight flight;
    flight.is_read = is_read;
    flight.block = cmd_block_;
    flight.guest_addr = cmd_addr_;
    flight.done_at = now + rng_.next_interval(double(mean_latency_));
    if (!is_read) {
        if (write_payload.size() != kDiskBlockSize)
            fatal("BlockDev: write payload must be one block");
        flight.write_payload = write_payload;
    }
    in_flight_ = std::move(flight);
}

Cycles
BlockDev::next_completion() const
{
    return in_flight_ ? in_flight_->done_at : ~static_cast<Cycles>(0);
}

std::optional<DiskCompletion>
BlockDev::take_completion(Cycles now)
{
    if (!in_flight_ || in_flight_->done_at > now)
        return std::nullopt;
    DiskCompletion done;
    done.is_read = in_flight_->is_read;
    done.block = in_flight_->block;
    done.guest_addr = in_flight_->guest_addr;
    if (in_flight_->is_read) {
        done.data.resize(kDiskBlockSize);
        disk_->read(done.block, done.data.data());
    } else {
        disk_->write(done.block, in_flight_->write_payload.data());
    }
    in_flight_.reset();
    ++total_transfers_;
    return done;
}

BlockDevState
BlockDev::export_state() const
{
    BlockDevState state;
    state.cmd_block = cmd_block_;
    state.cmd_addr = cmd_addr_;
    if (in_flight_) {
        state.busy = true;
        state.is_read = in_flight_->is_read;
        state.block = in_flight_->block;
        state.guest_addr = in_flight_->guest_addr;
        state.write_payload = in_flight_->write_payload;
    }
    return state;
}

void
BlockDev::import_state(const BlockDevState& state)
{
    cmd_block_ = state.cmd_block;
    cmd_addr_ = state.cmd_addr;
    if (state.busy) {
        InFlight flight;
        flight.is_read = state.is_read;
        flight.block = state.block;
        flight.guest_addr = state.guest_addr;
        flight.write_payload = state.write_payload;
        // Completion timing is irrelevant on the replay side: the input
        // log dictates when the completion interrupt is injected.
        flight.done_at = ~static_cast<Cycles>(0);
        in_flight_ = std::move(flight);
    } else {
        in_flight_.reset();
    }
}

}  // namespace rsafe::dev
