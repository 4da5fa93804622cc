#include "rnr/wire.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/log.h"

namespace rsafe::rnr::wire {

namespace {

/** Castagnoli polynomial, bit-reflected. */
constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;

/**
 * Slice-by-8 tables: table[0] is the classic byte table, and table[k][b]
 * is the CRC of byte b followed by k zero bytes, so eight table lookups
 * fold in a whole 8-byte word at once.
 */
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

const Crc32cTables&
crc32c_tables()
{
    static const Crc32cTables tables = [] {
        Crc32cTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPoly : 0);
            t[0][i] = crc;
        }
        for (std::size_t k = 1; k < t.size(); ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
        return t;
    }();
    return tables;
}

/**
 * Raw (no init/final XOR) CRC update, for incremental use: slice-by-8
 * over whole 8-byte words, then the byte table for the tail. Bytes are
 * assembled explicitly, so it is endian- and alignment-independent.
 */
std::uint32_t
crc32c_update(std::uint32_t crc, const std::uint8_t* data, std::size_t len)
{
    const auto& t = crc32c_tables();
    for (; len >= 8; data += 8, len -= 8) {
        const std::uint32_t lo =
            crc ^ (static_cast<std::uint32_t>(data[0]) |
                   static_cast<std::uint32_t>(data[1]) << 8 |
                   static_cast<std::uint32_t>(data[2]) << 16 |
                   static_cast<std::uint32_t>(data[3]) << 24);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][data[4]] ^
              t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
    }
    for (; len > 0; ++data, --len)
        crc = t[0][(crc ^ *data) & 0xff] ^ (crc >> 8);
    return crc;
}

/**
 * CRC32C of (seq ++ length ++ payload), the per-frame checksum. The
 * 8-byte (seq, length) prefix is read where the frame header stores it.
 */
std::uint32_t
frame_crc(const std::uint8_t* prefix, const std::uint8_t* payload,
          std::size_t length)
{
    std::uint32_t crc = 0xffffffffu;
    crc = crc32c_update(crc, prefix, 8);
    crc = crc32c_update(crc, payload, length);
    return crc ^ 0xffffffffu;
}

/** The label a frame's Reader reports errors under. */
const char*
frame_label(PayloadKind kind)
{
    switch (kind) {
      case PayloadKind::kInputLog: return "log record";
      case PayloadKind::kCheckpointDigest: return "checkpoint digest frame";
      case PayloadKind::kForensicReport: return "forensic frame";
      case PayloadKind::kPolicyTable: return "policy frame";
      case PayloadKind::kCheckpointImage: return "checkpoint image frame";
      case PayloadKind::kFlightBox: return "flight frame";
    }
    return "frame";
}

/** The header fields at @p p (kHeaderSize bytes), unvalidated. */
Header
read_header(const std::uint8_t* p)
{
    Reader r(p, kHeaderSize, "wire header");
    Header header;
    header.magic = r.u64();
    header.version = r.u16();
    header.kind = static_cast<PayloadKind>(r.u16());
    header.flags = r.u32();
    header.frame_count = r.u64();
    return header;
}

}  // namespace

void
Writer::string(const std::string& text)
{
    u32(static_cast<std::uint32_t>(text.size()));
    out_->insert(out_->end(), text.begin(), text.end());
}

std::span<const std::uint8_t>
Reader::bytes(std::size_t n)
{
    if (remaining() < n) {
        overrun("byte run");
        return {};
    }
    const std::span<const std::uint8_t> run(pos_, n);
    pos_ += n;
    return run;
}

std::string
Reader::string(std::uint32_t max_len)
{
    const std::uint32_t len = u32();
    if (len > max_len) {
        fail(StatusCode::kMalformedRecord,
             strcat_args(label_, " string of ", len, " bytes exceeds cap ",
                         max_len));
        return {};
    }
    const auto body = bytes(len);
    return std::string(body.begin(), body.end());
}

const Status&
Reader::fail(StatusCode code, std::string message)
{
    if (status_.ok()) {
        status_ = Status(code, std::move(message));
        end_ = pos_;
    }
    return status_;
}

void
Reader::overrun(const char* what)
{
    if (status_.ok()) {
        fail(StatusCode::kTruncated,
             strcat_args(label_, " ends mid-", what, " at byte ", pos(),
                         " of ", static_cast<std::size_t>(end_ - begin_)));
    }
}

void
Reader::bad_flag(std::uint64_t value)
{
    fail(StatusCode::kMalformedRecord,
         strcat_args(label_, " flag is ", value, ", want 0 or 1"));
}

bool
Reader::fits(std::uint64_t n, std::size_t elem_bytes, std::uint64_t cap)
{
    if (n > cap || n > remaining() / elem_bytes) {
        fail(StatusCode::kMalformedRecord,
             strcat_args(label_, " declares ", n, " ", elem_bytes,
                         "-byte entries but only ", remaining(),
                         " bytes remain"));
        return false;
    }
    return true;
}

std::uint32_t
crc32c(const std::uint8_t* data, std::size_t len)
{
    return crc32c_update(0xffffffffu, data, len) ^ 0xffffffffu;
}

std::uint32_t
crc32c(const std::vector<std::uint8_t>& data)
{
    return crc32c(data.data(), data.size());
}

std::uint64_t
fnv1a64(const std::uint8_t* data, std::size_t len, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
fnv1a64_u64(std::uint64_t value, std::uint64_t seed)
{
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
    return fnv1a64(bytes, sizeof(bytes), seed);
}

void
encode_header(const Header& header, std::vector<std::uint8_t>* out)
{
    const std::size_t base = out->size();
    Writer w(out);
    w.u64(header.magic);
    w.u16(header.version);
    w.u16(static_cast<std::uint16_t>(header.kind));
    w.u32(header.flags);
    w.u64(header.frame_count);
    w.u32(0);  // reserved
    w.u32(crc32c(out->data() + base, kHeaderSize - 4));
}

Status
decode_header(const std::vector<std::uint8_t>& bytes, Header* out)
{
    if (bytes.size() < kHeaderSize) {
        return Status(StatusCode::kTruncated,
                      strcat_args("image is ", bytes.size(),
                                  " bytes, wire header needs ", kHeaderSize));
    }
    *out = read_header(bytes.data());
    if (out->magic != kMagic) {
        return Status(StatusCode::kBadMagic,
                      strcat_args("bad magic 0x", std::hex, out->magic,
                                  ", expected 0x", kMagic, std::dec));
    }
    if (out->version != kVersion) {
        return Status(StatusCode::kBadVersion,
                      strcat_args("image is wire version ", out->version,
                                  "; this build reads version ", kVersion));
    }
    const std::uint32_t stored_crc =
        Reader(bytes.data() + kHeaderSize - 4, 4, "wire header").u32();
    const std::uint32_t actual_crc = crc32c(bytes.data(), kHeaderSize - 4);
    if (stored_crc != actual_crc) {
        return Status(StatusCode::kHeaderCorrupt,
                      strcat_args("header CRC 0x", std::hex, stored_crc,
                                  ", computed 0x", actual_crc, std::dec));
    }
    return Status();
}

void
append_frame(std::uint32_t seq, const std::uint8_t* payload, std::size_t len,
             std::vector<std::uint8_t>* out)
{
    if (len > kMaxFrameLength)
        panic(strcat_args("wire frame payload of ", len, " bytes exceeds ",
                          kMaxFrameLength));
    const std::size_t base = out->size();
    Writer w(out);
    w.u32(seq);
    w.u32(static_cast<std::uint32_t>(len));
    w.u32(frame_crc(out->data() + base, payload, len));
    w.bytes({payload, len});
}

Status
set_header_version(std::vector<std::uint8_t>* image, std::uint16_t version)
{
    if (image->size() < kHeaderSize)
        return Status(StatusCode::kInvalidArgument,
                      "image too short to carry a wire header");
    Header header = read_header(image->data());
    header.version = version;
    std::vector<std::uint8_t> sealed;
    encode_header(header, &sealed);
    std::copy(sealed.begin(), sealed.end(), image->begin());
    return Status();
}

std::string
LoadReport::to_string() const
{
    if (intact()) {
        return strcat_args("intact wire v", version, " image: ",
                           frames_recovered, " records, ", bytes_total,
                           " bytes");
    }
    return strcat_args(status.to_string(), " [v", version, ", recovered ",
                       frames_recovered, "/", frames_declared,
                       " records, stopped at byte ", corrupt_offset, "/",
                       bytes_total, "]");
}

LoadReport
read_frames(const std::vector<std::uint8_t>& bytes, PayloadKind expected_kind,
            const FrameSink& sink)
{
    LoadReport report;
    report.bytes_total = bytes.size();

    Header header;
    report.status = decode_header(bytes, &header);
    if (!report.status.ok()) {
        // The version is only meaningful once the magic matched.
        if (report.status.code() == StatusCode::kBadVersion ||
            report.status.code() == StatusCode::kHeaderCorrupt) {
            report.version = header.version;
        }
        return report;
    }
    report.version = header.version;
    report.frames_declared = header.frame_count;
    if (header.kind != expected_kind) {
        report.status = Status(
            StatusCode::kMalformedRecord,
            strcat_args("payload kind ",
                        static_cast<unsigned>(header.kind), ", expected ",
                        static_cast<unsigned>(expected_kind)));
        return report;
    }

    Reader image(bytes.data(), bytes.size(), "wire image");
    image.bytes(kHeaderSize);
    for (std::uint64_t i = 0; i < header.frame_count; ++i) {
        report.corrupt_offset = image.pos();
        if (image.remaining() < kFrameHeaderSize) {
            report.status = Status(
                StatusCode::kTruncated,
                strcat_args("record #", i, ": frame header truncated at byte ",
                            image.pos(), " of ", bytes.size()));
            return report;
        }
        const std::uint8_t* prefix = bytes.data() + image.pos();
        const std::uint32_t seq = image.u32();
        const std::uint32_t length = image.u32();
        const std::uint32_t stored_crc = image.u32();
        if (length > kMaxFrameLength) {
            report.status = Status(
                StatusCode::kMalformedRecord,
                strcat_args("record #", i, ": implausible frame length ",
                            length));
            return report;
        }
        if (length > image.remaining()) {
            report.status = Status(
                StatusCode::kTruncated,
                strcat_args("record #", i, ": frame wants ", length,
                            " payload bytes, only ", image.remaining(),
                            " left"));
            return report;
        }
        const auto payload = image.bytes(length);
        const std::uint32_t actual_crc =
            frame_crc(prefix, payload.data(), payload.size());
        if (stored_crc != actual_crc) {
            report.status = Status(
                StatusCode::kChecksumMismatch,
                strcat_args("record #", i, ": frame CRC 0x", std::hex,
                            stored_crc, ", computed 0x", actual_crc,
                            std::dec));
            return report;
        }
        // The frame is internally consistent; now check its ordering.
        if (seq != i) {
            const auto code = seq < i ? StatusCode::kDuplicateRecord
                                      : StatusCode::kReorderedRecord;
            report.status = Status(
                code, strcat_args("record #", i,
                                  ": frame carries sequence number ", seq));
            return report;
        }
        Reader frame(payload.data(), payload.size(),
                     frame_label(expected_kind));
        Status status = sink(seq, frame);
        if (status.ok())
            status = frame.status();
        if (status.ok() && frame.remaining() != 0) {
            status = Status(StatusCode::kMalformedRecord,
                            strcat_args("frame ", seq, " carries ",
                                        frame.remaining(),
                                        " trailing bytes"));
        }
        if (!status.ok()) {
            report.status = status;
            return report;
        }
        ++report.frames_recovered;
    }
    report.corrupt_offset = image.pos();
    if (image.remaining() != 0) {
        report.status = Status(
            StatusCode::kTrailingBytes,
            strcat_args(image.remaining(),
                        " bytes of trailing garbage after the last record"));
        return report;
    }
    return report;
}

Status
index_frames(const std::vector<std::uint8_t>& bytes,
             std::vector<FrameSpan>* out)
{
    out->clear();
    Header header;
    const Status header_status = decode_header(bytes, &header);
    if (!header_status.ok())
        return header_status;
    std::size_t offset = kHeaderSize;
    const LoadReport report =
        read_frames(bytes, header.kind, [&](std::uint64_t, Reader& frame) {
            const std::size_t size = kFrameHeaderSize + frame.rest().size();
            out->push_back(FrameSpan{offset, size});
            offset += size;
            return Status();
        });
    return report.status;
}

}  // namespace rsafe::rnr::wire
