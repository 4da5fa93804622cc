#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>

namespace rsafe::obs {

namespace {

/**
 * The thread's buffer plus the session generation it was attached in.
 * begin_session() clears the buffer list; stamping the generation lets
 * every thread detect that its cached pointer went stale and re-attach
 * instead of dereferencing a freed buffer.
 */
struct TlsSlot {
    std::uint64_t generation = 0;
    TraceBuffer* buffer = nullptr;
};

thread_local TlsSlot tls_slot;

/** Session generation; bumped by begin_session(). */
std::atomic<std::uint64_t> session_generation{1};

std::uint64_t
steady_now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Append @p text JSON-escaped (quotes, backslash, control chars). */
void
append_escaped(std::string* out, const std::string& text)
{
    for (const char c : text) {
        switch (c) {
          case '"': *out += "\\\""; break;
          case '\\': *out += "\\\\"; break;
          case '\n': *out += "\\n"; break;
          case '\t': *out += "\\t"; break;
          case '\r': *out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                *out += buf;
            } else {
                *out += c;
            }
        }
    }
}

/** Append a microsecond timestamp with nanosecond precision. */
void
append_ts_us(std::string* out, std::uint64_t ts_ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ts_ns / 1000),
                  static_cast<unsigned long long>(ts_ns % 1000));
    *out += buf;
}

const char*
phase_letter(TraceEvent::Phase phase)
{
    switch (phase) {
      case TraceEvent::Phase::kBegin: return "B";
      case TraceEvent::Phase::kEnd: return "E";
      case TraceEvent::Phase::kInstant: return "i";
      case TraceEvent::Phase::kCounter: return "C";
      case TraceEvent::Phase::kFlowStart: return "s";
      case TraceEvent::Phase::kFlowFinish: return "f";
    }
    return "i";
}

}  // namespace

TraceBuffer::TraceBuffer(std::string thread_name, std::size_t capacity)
    : name_(std::move(thread_name)),
      capacity_(capacity == 0 ? 1 : capacity),
      ring_(capacity_ * sizeof(TraceEvent))
{
}

void
TraceBuffer::emit(const TraceEvent& event)
{
    const std::size_t pos = size_.load(std::memory_order_relaxed);
    if (pos >= capacity_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // The slot's first use: construct the event in the zero-filled ring.
    new (ring_.data() + pos * sizeof(TraceEvent)) TraceEvent(event);
    // Release-publish: readers who acquire size() see the event body.
    size_.store(pos + 1, std::memory_order_release);
}

Tracer&
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::set_enabled(bool enabled)
{
    // The kill switch wins over every programmatic request, checked at
    // call time (not cached) so one process can A/B both settings.
    if (enabled && std::getenv("RSAFE_NO_TRACE") != nullptr)
        enabled = false;
    enabled_.store(enabled, std::memory_order_relaxed);
}

void
Tracer::begin_session()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Dropping the buffers would dangle any pointer a still-running
    // thread cached; the generation bump makes those stale pointers
    // unreachable (tls_buffer() re-attaches), so clearing is safe as
    // long as no instrumented thread is mid-emit — begin_session() is
    // only called from the coordinating thread between runs.
    buffers_.clear();
    session_generation.fetch_add(1, std::memory_order_release);
    t0_ns_ = steady_now_ns();
}

TraceBuffer*
Tracer::attach_thread(const char* name)
{
    const std::uint64_t generation =
        session_generation.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(mutex_);
    if (tls_slot.generation == generation && tls_slot.buffer != nullptr) {
        // Already attached this session: just (re)name the buffer.
        tls_slot.buffer->name_ = name;
        return tls_slot.buffer;
    }
    if (buffers_.size() >= kMaxBuffers) {
        tls_slot = TlsSlot{generation, nullptr};
        return nullptr;
    }
    auto buffer = std::make_unique<TraceBuffer>(name);
    buffer->tid_ = static_cast<std::uint32_t>(buffers_.size());
    TraceBuffer* raw = buffer.get();
    buffers_.push_back(std::move(buffer));
    tls_slot = TlsSlot{generation, raw};
    return raw;
}

std::uint64_t
Tracer::now_ns() const
{
    const std::uint64_t now = steady_now_ns();
    return now >= t0_ns_ ? now - t0_ns_ : 0;
}

TraceBuffer*
Tracer::tls_buffer()
{
    const std::uint64_t generation =
        session_generation.load(std::memory_order_acquire);
    if (tls_slot.generation == generation)
        return tls_slot.buffer;  // may be null past the buffer cap
    return attach_thread("thread");
}

void
Tracer::emit(const TraceEvent& event)
{
    TraceBuffer* buffer = tls_buffer();
    if (buffer != nullptr)
        buffer->emit(event);
}

void
Tracer::span_begin(const char* name, const char* category)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.phase = TraceEvent::Phase::kBegin;
    event.name = name;
    event.category = category;
    event.ts_ns = now_ns();
    emit(event);
}

void
Tracer::span_end(const char* name, const char* category)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.phase = TraceEvent::Phase::kEnd;
    event.name = name;
    event.category = category;
    event.ts_ns = now_ns();
    emit(event);
}

void
Tracer::instant(const char* name, const char* category,
                const char* arg_name, std::uint64_t arg_value)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.phase = TraceEvent::Phase::kInstant;
    event.name = name;
    event.category = category;
    event.ts_ns = now_ns();
    event.arg_name = arg_name;
    event.arg_value = arg_value;
    event.has_arg = arg_name != nullptr;
    emit(event);
}

void
Tracer::counter(const char* name, const char* category, std::uint64_t value)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.phase = TraceEvent::Phase::kCounter;
    event.name = name;
    event.category = category;
    event.ts_ns = now_ns();
    event.id = value;
    emit(event);
}

void
Tracer::flow_start(const char* name, const char* category, std::uint64_t id)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.phase = TraceEvent::Phase::kFlowStart;
    event.name = name;
    event.category = category;
    event.ts_ns = now_ns();
    event.id = id;
    emit(event);
}

void
Tracer::flow_finish(const char* name, const char* category, std::uint64_t id)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.phase = TraceEvent::Phase::kFlowFinish;
    event.name = name;
    event.category = category;
    event.ts_ns = now_ns();
    event.id = id;
    emit(event);
}

std::uint64_t
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& buffer : buffers_)
        total += buffer->dropped();
    return total;
}

std::uint64_t
Tracer::event_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& buffer : buffers_)
        total += buffer->size();
    return total;
}

std::string
Tracer::export_chrome_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    const auto comma = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };
    for (const auto& buffer : buffers_) {
        comma();
        out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
        out += std::to_string(buffer->tid());
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        append_escaped(&out, buffer->thread_name());
        out += "\"}}";
    }
    for (const auto& buffer : buffers_) {
        const std::size_t count = buffer->size();  // acquire
        for (std::size_t i = 0; i < count; ++i) {
            const TraceEvent& event = buffer->at(i);
            comma();
            out += "{\"ph\":\"";
            out += phase_letter(event.phase);
            out += "\",\"pid\":1,\"tid\":";
            out += std::to_string(buffer->tid());
            out += ",\"ts\":";
            append_ts_us(&out, event.ts_ns);
            out += ",\"name\":\"";
            append_escaped(&out, event.name != nullptr ? event.name : "");
            out += "\",\"cat\":\"";
            append_escaped(&out,
                           event.category != nullptr ? event.category : "");
            out += "\"";
            switch (event.phase) {
              case TraceEvent::Phase::kInstant:
                out += ",\"s\":\"t\"";
                if (event.has_arg) {
                    out += ",\"args\":{\"";
                    append_escaped(&out, event.arg_name);
                    out += "\":";
                    out += std::to_string(event.arg_value);
                    out += "}";
                }
                break;
              case TraceEvent::Phase::kCounter:
                out += ",\"args\":{\"value\":";
                out += std::to_string(event.id);
                out += "}";
                break;
              case TraceEvent::Phase::kFlowStart:
                out += ",\"id\":";
                out += std::to_string(event.id);
                break;
              case TraceEvent::Phase::kFlowFinish:
                out += ",\"id\":";
                out += std::to_string(event.id);
                out += ",\"bp\":\"e\"";
                break;
              case TraceEvent::Phase::kBegin:
              case TraceEvent::Phase::kEnd:
                break;
            }
            out += "}";
        }
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
Tracer::write_chrome_json(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << export_chrome_json();
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Trace schema validation
// ---------------------------------------------------------------------

namespace {

/**
 * Slice every top-level object out of the JSON array starting at
 * @p begin (the index of '['), string- and escape-aware.
 */
bool
slice_array_objects(const std::string& json, std::size_t begin,
                    std::vector<std::string>* out, std::string* error)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    std::size_t object_start = 0;
    for (std::size_t i = begin; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{':
            if (depth == 1)
                object_start = i;
            ++depth;
            break;
          case '}':
            --depth;
            if (depth == 1)
                out->push_back(
                    json.substr(object_start, i - object_start + 1));
            break;
          case '[': ++depth; break;
          case ']':
            --depth;
            if (depth == 0)
                return true;  // closed the traceEvents array
            break;
          default: break;
        }
        if (depth < 0) {
            *error = "unbalanced brackets in traceEvents";
            return false;
        }
    }
    *error = "traceEvents array never closes";
    return false;
}

/**
 * @return the raw value of top-level field @p key in object @p obj
 * (string values are unquoted), or empty if absent.
 */
std::string
extract_field(const std::string& obj, const std::string& key)
{
    const std::string needle = "\"" + key + "\"";
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (std::size_t i = 0; i < obj.size(); ++i) {
        const char c = obj[i];
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '{' || c == '[') {
            ++depth;
            continue;
        }
        if (c == '}' || c == ']') {
            --depth;
            continue;
        }
        if (c != '"')
            continue;
        // A string is opening; is it our key at object top level?
        if (depth == 1 && obj.compare(i, needle.size(), needle) == 0) {
            std::size_t p = i + needle.size();
            while (p < obj.size() &&
                   (obj[p] == ' ' || obj[p] == '\t' || obj[p] == '\n'))
                ++p;
            if (p < obj.size() && obj[p] == ':') {
                ++p;
                while (p < obj.size() &&
                       (obj[p] == ' ' || obj[p] == '\t' || obj[p] == '\n'))
                    ++p;
                if (p >= obj.size())
                    return "";
                if (obj[p] == '"') {
                    std::string value;
                    bool esc = false;
                    for (std::size_t q = p + 1; q < obj.size(); ++q) {
                        if (esc) {
                            value += obj[q];
                            esc = false;
                        } else if (obj[q] == '\\') {
                            esc = true;
                        } else if (obj[q] == '"') {
                            return value;
                        } else {
                            value += obj[q];
                        }
                    }
                    return value;
                }
                std::string value;
                int vdepth = 0;
                for (std::size_t q = p; q < obj.size(); ++q) {
                    const char vc = obj[q];
                    if (vdepth == 0 && (vc == ',' || vc == '}'))
                        break;
                    if (vc == '{' || vc == '[')
                        ++vdepth;
                    if (vc == '}' || vc == ']')
                        --vdepth;
                    value += vc;
                }
                while (!value.empty() &&
                       (value.back() == ' ' || value.back() == '\n'))
                    value.pop_back();
                return value;
            }
        }
        in_string = true;
    }
    return "";
}

}  // namespace

bool
validate_trace_json(const std::string& json, std::string* error)
{
    std::string scratch;
    if (error == nullptr)
        error = &scratch;
    const std::size_t key = json.find("\"traceEvents\"");
    if (key == std::string::npos) {
        *error = "no traceEvents key";
        return false;
    }
    const std::size_t open = json.find('[', key);
    if (open == std::string::npos) {
        *error = "traceEvents is not an array";
        return false;
    }
    std::vector<std::string> events;
    if (!slice_array_objects(json, open, &events, error))
        return false;

    std::map<std::string, long> span_depth;  // tid -> open B spans
    std::set<std::string> flow_starts;
    std::set<std::string> flow_finishes;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const std::string& obj = events[i];
        const std::string ph = extract_field(obj, "ph");
        if (ph.empty()) {
            *error = "event #" + std::to_string(i) + " has no ph";
            return false;
        }
        if (extract_field(obj, "pid").empty()) {
            *error = "event #" + std::to_string(i) + " has no pid";
            return false;
        }
        const std::string tid = extract_field(obj, "tid");
        if (tid.empty()) {
            *error = "event #" + std::to_string(i) + " has no tid";
            return false;
        }
        if (ph == "M")
            continue;  // metadata events carry no timestamp
        if (extract_field(obj, "name").empty()) {
            *error = "event #" + std::to_string(i) + " has no name";
            return false;
        }
        if (extract_field(obj, "ts").empty()) {
            *error = "event #" + std::to_string(i) + " has no ts";
            return false;
        }
        if (ph == "B") {
            ++span_depth[tid];
        } else if (ph == "E") {
            if (--span_depth[tid] < 0) {
                *error = "unmatched E on tid " + tid;
                return false;
            }
        } else if (ph == "s" || ph == "f") {
            const std::string id = extract_field(obj, "id");
            if (id.empty()) {
                *error = "flow event #" + std::to_string(i) + " has no id";
                return false;
            }
            (ph == "s" ? flow_starts : flow_finishes).insert(id);
        } else if (ph != "i" && ph != "C") {
            *error = "event #" + std::to_string(i) + " has unknown ph '" +
                     ph + "'";
            return false;
        }
    }
    for (const auto& [tid, depth] : span_depth) {
        if (depth != 0) {
            *error = "tid " + tid + " ends with " + std::to_string(depth) +
                     " unclosed span(s)";
            return false;
        }
    }
    for (const std::string& id : flow_starts) {
        if (flow_finishes.find(id) == flow_finishes.end()) {
            *error = "flow id " + id + " starts but never finishes";
            return false;
        }
    }
    return true;
}

}  // namespace rsafe::obs
