#include "obs/flight_recorder.h"

#include <chrono>
#include <sstream>

#include "common/log.h"
#include "obs/health.h"
#include "rnr/wire.h"

namespace rsafe::obs {

namespace {

using rnr::wire::PayloadKind;

/** Upper bound on an embedded string (decode sanity check). */
constexpr std::uint32_t kMaxStringLength = 1u << 16;

void
put_u64(std::vector<std::uint8_t>* out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void
put_u32(std::vector<std::uint8_t>* out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void
put_string(std::vector<std::uint8_t>* out, const std::string& s)
{
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out->insert(out->end(), s.begin(), s.end());
}

/** A bounds-checked little-endian reader over one frame payload. */
class Cursor {
  public:
    Cursor(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    Status u8(std::uint8_t* out)
    {
        if (pos_ + 1 > size_)
            return truncated("u8");
        *out = data_[pos_++];
        return Status();
    }

    Status u32(std::uint32_t* out)
    {
        if (pos_ + 4 > size_)
            return truncated("u32");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        *out = v;
        return Status();
    }

    Status u64(std::uint64_t* out)
    {
        if (pos_ + 8 > size_)
            return truncated("u64");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        *out = v;
        return Status();
    }

    Status string(std::string* out)
    {
        std::uint32_t len = 0;
        if (Status s = u32(&len); !s.ok())
            return s;
        if (len > kMaxStringLength) {
            return Status(StatusCode::kMalformedRecord,
                          strcat_args("flight string length ", len,
                                      " exceeds cap ", kMaxStringLength));
        }
        if (pos_ + len > size_)
            return truncated("string body");
        out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
        pos_ += len;
        return Status();
    }

    bool exhausted() const { return pos_ == size_; }

  private:
    Status truncated(const char* what) const
    {
        return Status(StatusCode::kTruncated,
                      strcat_args("flight frame ends mid-", what,
                                  " at byte ", pos_, " of ", size_));
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Append @p text JSON-escaped. */
void
append_escaped(std::string* out, const std::string& text)
{
    for (const char c : text) {
        switch (c) {
          case '"': *out += "\\\""; break;
          case '\\': *out += "\\\\"; break;
          case '\n': *out += "\\n"; break;
          case '\t': *out += "\\t"; break;
          default: *out += c;
        }
    }
}

}  // namespace

const char*
flight_entry_kind_name(FlightEntryKind kind)
{
    switch (kind) {
      case FlightEntryKind::kNote: return "note";
      case FlightEntryKind::kSample: return "sample";
      case FlightEntryKind::kTransition: return "transition";
      case FlightEntryKind::kVerdict: return "verdict";
      case FlightEntryKind::kShutdown: return "shutdown";
    }
    return "<bad>";
}

std::vector<std::uint8_t>
FlightBox::serialize() const
{
    // Frame 0 carries the dump scalars; frames 1..N carry one entry
    // each, so a damaged entry frame loses only that moment.
    std::vector<std::uint8_t> head;
    put_string(&head, reason);
    put_u64(&head, total_appended);
    put_u64(&head, dropped);

    std::vector<std::uint8_t> out;
    rnr::wire::Header header;
    header.kind = PayloadKind::kFlightBox;
    header.frame_count = 1 + entries.size();
    rnr::wire::encode_header(header, &out);
    rnr::wire::append_frame(0, head.data(), head.size(), &out);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        std::vector<std::uint8_t> frame;
        frame.push_back(static_cast<std::uint8_t>(entries[i].kind));
        put_u64(&frame, entries[i].t_ms);
        put_u64(&frame, entries[i].value);
        put_string(&frame, entries[i].tenant);
        put_string(&frame, entries[i].label);
        put_string(&frame, entries[i].detail);
        rnr::wire::append_frame(static_cast<std::uint32_t>(i + 1),
                                frame.data(), frame.size(), &out);
    }
    return out;
}

Status
FlightBox::deserialize(const std::vector<std::uint8_t>& bytes,
                       FlightBox* out)
{
    *out = FlightBox();
    const auto report = rnr::wire::read_frames(
        bytes, PayloadKind::kFlightBox,
        [&](std::uint64_t seq, std::size_t offset,
            std::size_t length) -> Status {
            Cursor cursor(bytes.data() + offset, length);
            if (seq == 0) {
                Status s;
                if (!(s = cursor.string(&out->reason)).ok()) return s;
                if (!(s = cursor.u64(&out->total_appended)).ok()) return s;
                if (!(s = cursor.u64(&out->dropped)).ok()) return s;
            } else {
                FlightEntry entry;
                std::uint8_t kind = 0;
                Status s;
                if (!(s = cursor.u8(&kind)).ok()) return s;
                if (kind >
                    static_cast<std::uint8_t>(FlightEntryKind::kShutdown)) {
                    return Status(StatusCode::kMalformedRecord,
                                  strcat_args("flight frame ", seq,
                                              ": bad entry kind ", kind));
                }
                if (!(s = cursor.u64(&entry.t_ms)).ok()) return s;
                if (!(s = cursor.u64(&entry.value)).ok()) return s;
                if (!(s = cursor.string(&entry.tenant)).ok()) return s;
                if (!(s = cursor.string(&entry.label)).ok()) return s;
                if (!(s = cursor.string(&entry.detail)).ok()) return s;
                entry.kind = static_cast<FlightEntryKind>(kind);
                out->entries.push_back(std::move(entry));
            }
            if (!cursor.exhausted()) {
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("flight frame ", seq,
                                          " carries trailing bytes"));
            }
            return Status();
        });
    return report.status;
}

std::string
FlightBox::to_string() const
{
    std::ostringstream os;
    os << "flight box: " << reason << " (" << entries.size()
       << " retained of " << total_appended << " appended, " << dropped
       << " shed)\n";
    for (const FlightEntry& entry : entries) {
        os << "  [" << entry.t_ms << "ms] "
           << flight_entry_kind_name(entry.kind);
        if (!entry.tenant.empty())
            os << " tenant=" << entry.tenant;
        if (!entry.label.empty())
            os << " " << entry.label;
        os << " value=" << entry.value;
        if (!entry.detail.empty())
            os << "  " << entry.detail;
        os << "\n";
    }
    return os.str();
}

std::string
FlightBox::to_json() const
{
    std::string out = "{\"reason\": \"";
    append_escaped(&out, reason);
    out += "\", \"total_appended\": " + std::to_string(total_appended);
    out += ", \"dropped\": " + std::to_string(dropped);
    out += ", \"entries\": [";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += "{\"t_ms\": " + std::to_string(entries[i].t_ms);
        out += ", \"kind\": \"";
        out += flight_entry_kind_name(entries[i].kind);
        out += "\", \"tenant\": \"";
        append_escaped(&out, entries[i].tenant);
        out += "\", \"label\": \"";
        append_escaped(&out, entries[i].label);
        out += "\", \"value\": " + std::to_string(entries[i].value);
        out += ", \"detail\": \"";
        append_escaped(&out, entries[i].detail);
        out += "\"}";
    }
    out += "]}";
    return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      t0_ms_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count()))
{
    ring_.reserve(capacity_);
}

std::uint64_t
FlightRecorder::now_ms() const
{
    const std::uint64_t now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    return now >= t0_ms_ ? now - t0_ms_ : 0;
}

void
FlightRecorder::record(FlightEntryKind kind, const std::string& tenant,
                       const std::string& label, std::uint64_t value,
                       const std::string& detail)
{
    FlightEntry entry;
    entry.kind = kind;
    entry.t_ms = now_ms();
    entry.tenant = tenant;
    entry.label = label;
    entry.value = value;
    entry.detail = detail;

    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(entry));
    } else {
        ring_[next_] = std::move(entry);
        wrapped_ = true;
    }
    next_ = (next_ + 1) % capacity_;
    ++total_appended_;
}

FlightBox
FlightRecorder::dump(const std::string& reason)
{
    FlightBox box;
    box.reason = reason;

    std::lock_guard<std::mutex> lock(mu_);
    box.total_appended = total_appended_;
    box.dropped = total_appended_ - ring_.size();
    box.entries.reserve(ring_.size());
    if (wrapped_) {
        // Oldest entry sits at next_ once the ring has wrapped.
        for (std::size_t i = 0; i < ring_.size(); ++i)
            box.entries.push_back(ring_[(next_ + i) % capacity_]);
    } else {
        box.entries = ring_;
    }
    latest_ = box.serialize();
    ++dumps_;
    return box;
}

std::vector<std::uint8_t>
FlightRecorder::latest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latest_;
}

std::uint64_t
FlightRecorder::dumps() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dumps_;
}

std::uint64_t
FlightRecorder::appended() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_appended_;
}

void
record_transitions(HealthMonitor* monitor, FlightRecorder* flight)
{
    monitor->add_listener([flight](const HealthEvent& event) {
        flight->record(FlightEntryKind::kTransition, event.tenant,
                       health_signal_name(event.signal), event.value,
                       event.to_string());
        if (event.to == HealthState::kCritical)
            flight->dump("slo-breach:" + event.tenant);
    });
}

}  // namespace rsafe::obs
