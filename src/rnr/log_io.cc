#include "rnr/log_io.h"

#include <cstdio>
#include <fstream>

#include "common/log.h"
#include "obs/trace.h"

namespace rsafe::rnr {

std::size_t
InputLog::append(LogRecord record)
{
    total_bytes_ += record.serialized_size();
    records_.push_back(std::move(record));
    return records_.size() - 1;
}

const LogRecord&
InputLog::at(std::size_t index) const
{
    if (index >= records_.size())
        panic(strcat_args("InputLog::at(", index, ") out of range (size=",
                          records_.size(), ")"));
    return records_[index];
}

std::uint64_t
InputLog::bytes_in_range(std::size_t first, std::size_t last) const
{
    std::uint64_t bytes = 0;
    for (std::size_t i = first; i < last && i < records_.size(); ++i)
        bytes += records_[i].serialized_size();
    return bytes;
}

std::size_t
InputLog::find_next(RecordType type, std::size_t from) const
{
    for (std::size_t i = from; i < records_.size(); ++i)
        if (records_[i].type == type)
            return i;
    return records_.size();
}

std::vector<std::size_t>
InputLog::find_all(RecordType type) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < records_.size(); ++i)
        if (records_[i].type == type)
            out.push_back(i);
    return out;
}

std::vector<std::uint8_t>
InputLog::serialize() const
{
    std::vector<std::uint8_t> out;
    out.reserve(wire::kHeaderSize + total_bytes_ +
                records_.size() * wire::kFrameHeaderSize);
    wire::Header header;
    header.kind = wire::PayloadKind::kInputLog;
    header.frame_count = records_.size();
    wire::encode_header(header, &out);
    std::vector<std::uint8_t> payload;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        payload.clear();
        records_[i].serialize(&payload);
        wire::append_frame(static_cast<std::uint32_t>(i), payload.data(),
                           payload.size(), &out);
    }
    return out;
}

wire::LoadReport
InputLog::deserialize_tolerant(const std::vector<std::uint8_t>& bytes,
                               InputLog* out)
{
    obs::ScopedSpan span("wire.load", "wire");
    out->records_.clear();
    out->total_bytes_ = 0;

    auto report = wire::read_frames(
        bytes, wire::PayloadKind::kInputLog,
        [&](std::uint64_t seq, wire::Reader& frame) {
            LogRecord record;
            const Status status = LogRecord::decode(frame, &record);
            if (!status.ok()) {
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("record #", seq, ": ",
                                          status.message()));
            }
            out->append(std::move(record));
            return Status();
        });
    if (!report.intact()) {
        obs::Tracer::instance().instant("wire.integrity_failure", "wire",
                                        "recovered",
                                        report.frames_recovered);
    }
    return report;
}

Status
InputLog::deserialize(const std::vector<std::uint8_t>& bytes, InputLog* out)
{
    const wire::LoadReport report = deserialize_tolerant(bytes, out);
    if (!report.intact()) {
        out->records_.clear();
        out->total_bytes_ = 0;
        return report.status;
    }
    return Status();
}

Status
InputLog::save(const std::string& path) const
{
    const auto bytes = serialize();
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        return Status(StatusCode::kIoError,
                      "InputLog::save: cannot open " + path);
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!file)
        return Status(StatusCode::kIoError,
                      "InputLog::save: write failed for " + path);
    return Status();
}

namespace {

/** Slurp @p path into @p bytes (kIoError on any file-level failure). */
Status
read_file(const std::string& path, std::vector<std::uint8_t>* bytes)
{
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    if (!file)
        return Status(StatusCode::kIoError, "cannot open " + path);
    const auto size = static_cast<std::size_t>(file.tellg());
    file.seekg(0);
    bytes->resize(size);
    file.read(reinterpret_cast<char*>(bytes->data()),
              static_cast<std::streamsize>(size));
    if (!file)
        return Status(StatusCode::kIoError, "read failed for " + path);
    return Status();
}

}  // namespace

Status
InputLog::load(const std::string& path, InputLog* out)
{
    std::vector<std::uint8_t> bytes;
    const Status io = read_file(path, &bytes);
    if (!io.ok())
        return io;
    return deserialize(bytes, out);
}

wire::LoadReport
InputLog::load_tolerant(const std::string& path, InputLog* out)
{
    std::vector<std::uint8_t> bytes;
    const Status io = read_file(path, &bytes);
    if (!io.ok()) {
        wire::LoadReport report;
        report.status = io;
        return report;
    }
    return deserialize_tolerant(bytes, out);
}

}  // namespace rsafe::rnr
