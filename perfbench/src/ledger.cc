#include "ledger.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
RunLedger::total_ms(const std::string& name) const
{
    const auto it = durations.find(name);
    double sum = 0.0;
    if (it != durations.end())
        for (const double d : it->second)
            sum += d;
    return sum;
}

std::size_t
RunLedger::count(const std::string& name) const
{
    const auto it = durations.find(name);
    return it == durations.end() ? 0 : it->second.size();
}

Ledger::Span::Span(Ledger* ledger, const char* name) : ledger_(ledger)
{
    if (ledger_->enabled_)
        index_ = ledger_->open(name);
}

Ledger::Span::~Span()
{
    if (index_ >= 0)
        ledger_->close(index_);
}

int
Ledger::open(const char* name)
{
    SpanRecord record;
    record.name = name;
    record.parent = stack_.empty() ? -1 : stack_.back();
    record.run_id = run_id_;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(record);
    stack_.push_back(index);
    // Stamp last, so the bookkeeping above is outside the span.
    spans_[index].start_ns = now_ns();
    return index;
}

void
Ledger::close(int index)
{
    const std::int64_t end = now_ns();
    spans_[index].end_ns = end;
    stack_.pop_back();
}

RunLedger
Ledger::digest(std::uint32_t run_id) const
{
    RunLedger out;
    // Child coverage per span, and the root's children in start order.
    std::vector<double> child_ms(spans_.size(), 0.0);
    int root = -1;
    std::vector<int> root_children;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        if (s.run_id != run_id || s.end_ns < 0)
            continue;
        const double ms = double(s.end_ns - s.start_ns) / 1e6;
        out.durations[s.name].push_back(ms);
        if (s.parent < 0) {
            root = static_cast<int>(i);
            out.root_ms = ms;
        } else {
            child_ms[s.parent] += ms;
            if (s.parent == root)
                root_children.push_back(static_cast<int>(i));
        }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        if (s.run_id != run_id || s.end_ns < 0)
            continue;
        out.self_ms[s.name] +=
            double(s.end_ns - s.start_ns) / 1e6 - child_ms[i];
    }
    if (root < 0 || out.root_ms <= 0.0)
        return out;
    out.coverage = child_ms[root] / out.root_ms;

    std::int64_t cursor = spans_[root].start_ns;
    std::string after = "start";
    const auto gap = [&](std::int64_t until) {
        const double ms = double(until - cursor) / 1e6;
        if (ms > out.largest_gap_ms) {
            out.largest_gap_ms = ms;
            out.largest_gap_after = after;
        }
    };
    for (const int c : root_children) {
        gap(spans_[c].start_ns);
        cursor = spans_[c].end_ns;
        after = spans_[c].name;
    }
    gap(spans_[root].end_ns);
    return out;
}

bool
Ledger::write_chrome_json(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":1,\"args\":{\"name\":\"perfbench\"}}");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        if (s.end_ns < 0)
            continue;
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%zu,\"parent\":%d,\"run\":%u}}",
                     s.name, double(s.start_ns - base) / 1e3,
                     double(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                     s.run_id);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
