#include "fleet/work_pool.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "obs/trace.h"

namespace rsafe::fleet {

WorkStealingPool::WorkStealingPool(const PoolOptions& options)
    : options_(options)
{
    std::size_t n = options_.workers != 0
                        ? options_.workers
                        : std::thread::hardware_concurrency();
    if (n == 0)
        n = 1;
    if (options_.tenant_inflight_cap == 0)
        fatal("WorkStealingPool: tenant_inflight_cap must be >= 1");
    stats_.workers = n;
    deques_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        deques_.push_back(std::make_unique<WorkerDeque>());
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { worker_main(i); });
}

WorkStealingPool::~WorkStealingPool()
{
    abandon();
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

std::size_t
WorkStealingPool::register_tenant(std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    Tenant tenant;
    tenant.stats.name = name;
    tenant.name = std::move(name);
    tenants_.push_back(std::move(tenant));
    return tenants_.size() - 1;
}

void
WorkStealingPool::submit(std::size_t tenant, Job job)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (tenant >= tenants_.size())
        fatal("WorkStealingPool: submit to unregistered tenant");
    Tenant& t = tenants_[tenant];
    ++t.stats.submitted;
    ++stats_.submitted;
    ++outstanding_;
    QueuedJob queued{tenant, std::move(job)};
    if (t.inflight < options_.tenant_inflight_cap) {
        ++t.inflight;
        t.admitted.push_back(std::move(queued));
        stats_.max_admitted = std::max(stats_.max_admitted, admitted_total());
        work_cv_.notify_one();
    } else {
        t.parked.push_back(std::move(queued));
        t.stats.max_parked = std::max(t.stats.max_parked, t.parked.size());
    }
}

std::size_t
WorkStealingPool::admitted_total() const
{
    std::size_t total = 0;
    for (const Tenant& t : tenants_)
        total += t.admitted.size();
    return total;
}

bool
WorkStealingPool::pop_local(std::size_t w, QueuedJob* out)
{
    WorkerDeque& deque = *deques_[w];
    std::lock_guard<std::mutex> lock(deque.mu);
    if (deque.jobs.empty())
        return false;
    *out = std::move(deque.jobs.front());
    deque.jobs.pop_front();
    return true;
}

bool
WorkStealingPool::take_admitted(std::size_t w, QueuedJob* out)
{
    std::vector<QueuedJob> batch;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const std::size_t total = admitted_total();
        if (total == 0 || tenants_.empty())
            return false;
        // Size the hand-off so concurrent takers each get a share; the
        // leftovers ride in this worker's deque where siblings can steal
        // them back.
        const std::size_t want = std::clamp<std::size_t>(
            total / workers_.size(), 1, 8);
        std::size_t empty_scanned = 0;
        while (batch.size() < want && empty_scanned < tenants_.size()) {
            Tenant& t = tenants_[rr_];
            rr_ = (rr_ + 1) % tenants_.size();
            if (t.admitted.empty()) {
                ++empty_scanned;
                continue;
            }
            empty_scanned = 0;
            batch.push_back(std::move(t.admitted.front()));
            t.admitted.pop_front();
        }
        ++stats_.global_takes;
    }
    *out = std::move(batch.front());
    if (batch.size() > 1) {
        WorkerDeque& deque = *deques_[w];
        std::lock_guard<std::mutex> lock(deque.mu);
        for (std::size_t i = 1; i < batch.size(); ++i)
            deque.jobs.push_back(std::move(batch[i]));
    }
    return true;
}

bool
WorkStealingPool::steal(std::size_t w, QueuedJob* out)
{
    // Pick the fattest sibling deque. Sizes are sampled under each
    // deque's own lock; a stale pick just means a retry next loop.
    std::size_t victim = deques_.size();
    std::size_t best = 0;
    for (std::size_t i = 0; i < deques_.size(); ++i) {
        if (i == w)
            continue;
        std::lock_guard<std::mutex> lock(deques_[i]->mu);
        if (deques_[i]->jobs.size() > best) {
            best = deques_[i]->jobs.size();
            victim = i;
        }
    }
    if (victim == deques_.size())
        return false;

    std::vector<QueuedJob> loot;
    {
        WorkerDeque& deque = *deques_[victim];
        std::lock_guard<std::mutex> lock(deque.mu);
        const std::size_t n = deque.jobs.size();
        if (n == 0)
            return false;
        const std::size_t take = (n + 1) / 2;
        // Thieves take from the back — the owner keeps popping the front
        // undisturbed. Collect back-first, then reverse to restore age
        // order.
        for (std::size_t i = 0; i < take; ++i) {
            loot.push_back(std::move(deque.jobs.back()));
            deque.jobs.pop_back();
        }
    }
    std::reverse(loot.begin(), loot.end());
    *out = std::move(loot.front());
    if (loot.size() > 1) {
        WorkerDeque& deque = *deques_[w];
        std::lock_guard<std::mutex> lock(deque.mu);
        for (std::size_t i = 1; i < loot.size(); ++i)
            deque.jobs.push_back(std::move(loot[i]));
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.steals;
        stats_.stolen_jobs += loot.size();
    }
    return true;
}

void
WorkStealingPool::complete(const QueuedJob& job, std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !first_error_)
        first_error_ = std::move(error);
    Tenant& t = tenants_[job.tenant];
    ++t.stats.executed;
    ++stats_.executed;
    --outstanding_;
    --t.inflight;
    // The completed job frees one slot of its tenant's fair share; admit
    // the tenant's oldest parked job into it.
    if (!t.parked.empty() && t.inflight < options_.tenant_inflight_cap) {
        ++t.inflight;
        t.admitted.push_back(std::move(t.parked.front()));
        t.parked.pop_front();
        stats_.max_admitted = std::max(stats_.max_admitted, admitted_total());
        work_cv_.notify_one();
    }
    if (outstanding_ == 0)
        idle_cv_.notify_all();
}

void
WorkStealingPool::worker_main(std::size_t index)
{
    if (obs::Tracer::instance().enabled()) {
        const std::string name = "fleet.worker" + std::to_string(index);
        obs::Tracer::instance().attach_thread(name.c_str());
    }
    for (;;) {
        QueuedJob job;
        if (pop_local(index, &job) || take_admitted(index, &job) ||
            steal(index, &job)) {
            std::exception_ptr error;
            try {
                job.fn();
            } catch (...) {
                error = std::current_exception();
            }
            complete(job, std::move(error));
            continue;
        }
        std::unique_lock<std::mutex> lock(mu_);
        if (admitted_total() > 0)
            continue;  // raced with a submit; retry the fast path
        if (stopping_)
            return;
        ++stats_.starved_waits;
        work_cv_.wait(lock,
                      [this] { return stopping_ || admitted_total() > 0; });
        if (stopping_ && admitted_total() == 0)
            return;
    }
}

void
WorkStealingPool::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
    if (first_error_)
        std::rethrow_exception(std::exchange(first_error_, nullptr));
}

void
WorkStealingPool::abandon()
{
    // Pull the jobs already handed to worker deques out first (never
    // holding mu_ under a deque lock), then discard them together with
    // every parked and admitted job in one critical section: freeing
    // the deque jobs' in-flight slots in a later section than the parked
    // sweep would strand a job parked in between behind a slot nobody
    // admits it into, and the wait below would never return.
    std::vector<QueuedJob> taken;
    for (auto& deque : deques_) {
        std::lock_guard<std::mutex> lock(deque->mu);
        while (!deque->jobs.empty()) {
            taken.push_back(std::move(deque->jobs.front()));
            deque->jobs.pop_front();
        }
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (const QueuedJob& job : taken) {
        Tenant& t = tenants_[job.tenant];
        ++t.stats.discarded;
        ++stats_.discarded;
        --outstanding_;
        --t.inflight;
    }
    for (Tenant& t : tenants_) {
        const std::size_t dropped = t.parked.size() + t.admitted.size();
        t.stats.discarded += dropped;
        stats_.discarded += dropped;
        outstanding_ -= dropped;
        t.inflight -= t.admitted.size();
        t.parked.clear();
        t.admitted.clear();
    }
    // Only the jobs actually executing remain; wait those out.
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

PoolStats
WorkStealingPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::vector<TenantPoolStats>
WorkStealingPool::tenant_stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TenantPoolStats> out;
    out.reserve(tenants_.size());
    for (const Tenant& t : tenants_)
        out.push_back(t.stats);
    return out;
}

}  // namespace rsafe::fleet
