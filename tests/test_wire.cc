/** @file Wire-format hardening tests: header validation, CRC framing,
 *  truncation-tolerant recovery, checkpoint digests, and the
 *  deterministic fault injector's aim. */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "fault/injector.h"
#include "replay/checkpoint.h"
#include "rnr/log_io.h"
#include "rnr/wire.h"

namespace rsafe {
namespace {

namespace wire = rnr::wire;
using rnr::InputLog;
using rnr::LogRecord;
using rnr::RecordType;

LogRecord
sample_record(RecordType type, InstrCount icount)
{
    LogRecord record;
    record.type = type;
    record.icount = icount;
    // Canonical field values only: irq vectors are u8, io-in ports are
    // u16, mmio addresses live in the 0xF0000000 device window. Values
    // outside those ranges would not survive a decode round trip.
    record.value = type == RecordType::kIrqInject ? 0xef : 0xfeedbeef;
    record.addr = type == RecordType::kIoIn ? 0x10 : 0xF0000008ULL;
    record.tid = 3;
    record.alarm.kind = cpu::RasAlarmKind::kUnderflow;
    record.alarm.ret_pc = 0x2048;
    record.alarm.predicted = 0x2050;
    record.alarm.actual = 0x6000;
    record.alarm.sp_after = 0x21000;
    record.alarm.kernel_mode = true;
    if (type == RecordType::kNicDma)
        record.payload = {1, 2, 3, 4, 5};
    return record;
}

InputLog
make_log(std::size_t records)
{
    InputLog log;
    const int num_types = static_cast<int>(RecordType::kDiskComplete) + 1;
    for (std::size_t i = 0; i < records; ++i)
        log.append(sample_record(
            static_cast<RecordType>(i % num_types), 1000 + 13 * i));
    return log;
}

// ---------------------------------------------------------------------
// CRC32C and the raw frame walker.
// ---------------------------------------------------------------------

TEST(Crc32c, KnownAnswer)
{
    // The canonical CRC32C check value (RFC 3720 appendix, "123456789").
    const std::uint8_t digits[] = {'1', '2', '3', '4', '5',
                                   '6', '7', '8', '9'};
    EXPECT_EQ(wire::crc32c(digits, sizeof(digits)), 0xE3069283u);
    EXPECT_EQ(wire::crc32c(nullptr, 0), 0u);
}

/** Bit-at-a-time CRC32C: the definition the table code must match. */
std::uint32_t
reference_crc32c(const std::uint8_t* data, std::size_t len)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
    return crc ^ 0xffffffffu;
}

TEST(Crc32c, WordAtATimeMatchesTheBytewiseDefinition)
{
    // Every length through 64 (each word/tail split) plus a full page,
    // starting at each offset within a word so loads are misaligned.
    std::vector<std::uint8_t> buf(4096 + 16);
    std::uint32_t x = 0x9e3779b9u;
    for (auto& byte : buf) {
        x = x * 1664525u + 1013904223u;
        byte = static_cast<std::uint8_t>(x >> 24);
    }
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len <= 64; ++len)
        lengths.push_back(len);
    lengths.push_back(4096);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (const std::size_t len : lengths) {
            const std::uint8_t* p = buf.data() + offset;
            EXPECT_EQ(wire::crc32c(p, len), reference_crc32c(p, len))
                << "offset " << offset << ", length " << len;
        }
    }
}

TEST(WireHeader, RoundTrip)
{
    wire::Header in;
    in.kind = wire::PayloadKind::kCheckpointDigest;
    in.frame_count = 42;
    std::vector<std::uint8_t> bytes;
    wire::encode_header(in, &bytes);
    ASSERT_EQ(bytes.size(), wire::kHeaderSize);

    wire::Header out;
    ASSERT_TRUE(wire::decode_header(bytes, &out).ok());
    EXPECT_EQ(out.magic, wire::kMagic);
    EXPECT_EQ(out.version, wire::kVersion);
    EXPECT_EQ(out.kind, wire::PayloadKind::kCheckpointDigest);
    EXPECT_EQ(out.frame_count, 42u);
}

TEST(WireHeader, FailureTaxonomyInCheckOrder)
{
    wire::Header header;
    std::vector<std::uint8_t> intact;
    wire::encode_header(header, &intact);

    // Too short for any header at all.
    {
        std::vector<std::uint8_t> bytes(intact.begin(), intact.begin() + 7);
        wire::Header out;
        EXPECT_EQ(wire::decode_header(bytes, &out).code(),
                  StatusCode::kTruncated);
    }
    // Foreign magic wins over everything else.
    {
        auto bytes = intact;
        bytes[0] ^= 0xff;
        wire::Header out;
        EXPECT_EQ(wire::decode_header(bytes, &out).code(),
                  StatusCode::kBadMagic);
    }
    // A future version is a version error even though the CRC (sealed
    // over the new version) would also mismatch the old bytes.
    {
        auto bytes = intact;
        ASSERT_TRUE(wire::set_header_version(&bytes, 9).ok());
        wire::Header out;
        EXPECT_EQ(wire::decode_header(bytes, &out).code(),
                  StatusCode::kBadVersion);
    }
    // Same magic and version, damaged elsewhere: header corruption.
    {
        auto bytes = intact;
        bytes[17] ^= 0x40;  // inside frame_count
        wire::Header out;
        EXPECT_EQ(wire::decode_header(bytes, &out).code(),
                  StatusCode::kHeaderCorrupt);
    }
    // A log in the pre-wire "RSAFELOG" layout (magic + count + records,
    // no checksums) is a foreign file: kBadMagic, nothing loaded.
    {
        const InputLog log = make_log(3);
        std::vector<std::uint8_t> bytes;
        wire::Writer w(&bytes);
        w.u64(0x52534146454C4F47ULL);  // "RSAFELOG"
        w.u64(log.size());
        for (std::size_t i = 0; i < log.size(); ++i)
            log.at(i).serialize(&bytes);
        InputLog out;
        const auto report = InputLog::deserialize_tolerant(bytes, &out);
        EXPECT_EQ(report.status.code(), StatusCode::kBadMagic);
        EXPECT_EQ(out.size(), 0u);
    }
}

TEST(WireFrames, RejectsCrossFeedingPayloadKinds)
{
    const auto bytes = make_log(3).serialize();
    const auto report = wire::read_frames(
        bytes, wire::PayloadKind::kCheckpointDigest,
        [](std::uint64_t, wire::Reader& frame) {
            frame.rest();
            return Status();
        });
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.status.code(), StatusCode::kMalformedRecord);
}

TEST(WireFrames, TrailingGarbageIsDetected)
{
    auto bytes = make_log(2).serialize();
    bytes.push_back(0xab);
    InputLog out;
    const auto report = InputLog::deserialize_tolerant(bytes, &out);
    EXPECT_EQ(report.status.code(), StatusCode::kTrailingBytes);
    // Everything before the garbage was still recovered.
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(report.frames_recovered, 2u);
}

// ---------------------------------------------------------------------
// Input-log strict and tolerant parsing.
// ---------------------------------------------------------------------

TEST(LogWire, ZeroLengthImage)
{
    InputLog out;
    const Status status = InputLog::deserialize({}, &out);
    EXPECT_EQ(status.code(), StatusCode::kTruncated);
    EXPECT_EQ(out.size(), 0u);
}

TEST(LogWire, EmptyLogRoundTrips)
{
    const auto bytes = InputLog().serialize();
    EXPECT_EQ(bytes.size(), wire::kHeaderSize);
    InputLog out;
    EXPECT_TRUE(InputLog::deserialize(bytes, &out).ok());
    EXPECT_EQ(out.size(), 0u);
}

TEST(LogWire, EveryTruncationPointRecoversAPrefix)
{
    const InputLog log = make_log(6);
    const auto bytes = log.serialize();

    for (std::size_t cut = wire::kHeaderSize; cut < bytes.size(); ++cut) {
        const std::vector<std::uint8_t> trunc(bytes.begin(),
                                              bytes.begin() + cut);
        InputLog out;
        const auto report = InputLog::deserialize_tolerant(trunc, &out);
        ASSERT_FALSE(report.intact());
        ASSERT_EQ(report.status.code(), StatusCode::kTruncated);
        // The recovered prefix is exact: every whole frame before the
        // cut, nothing after it, nothing half-parsed.
        ASSERT_EQ(out.size(), report.frames_recovered);
        ASSERT_LT(report.frames_recovered, log.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out.at(i).to_string(), log.at(i).to_string());
        // Strict parsing refuses the same bytes outright.
        InputLog strict;
        ASSERT_FALSE(InputLog::deserialize(trunc, &strict).ok());
        ASSERT_EQ(strict.size(), 0u);
    }
}

TEST(LogWire, SingleBitFlipNeverGoesUnnoticed)
{
    const InputLog log = make_log(4);
    const auto bytes = log.serialize();

    // Flip one bit at every byte offset in turn: no position may yield
    // an "intact" verdict over different bytes (zero silent corruption).
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        auto mutated = bytes;
        mutated[pos] ^= 0x10;
        InputLog out;
        const auto report = InputLog::deserialize_tolerant(mutated, &out);
        ASSERT_FALSE(report.intact()) << "flip at byte " << pos;
    }
}

TEST(LogWire, ForensicReportLocatesTheDamage)
{
    const InputLog log = make_log(5);
    auto bytes = log.serialize();

    std::vector<wire::FrameSpan> frames;
    ASSERT_TRUE(wire::index_frames(bytes, &frames).ok());
    ASSERT_EQ(frames.size(), 5u);

    // Damage record #3's payload.
    bytes[frames[3].offset + wire::kFrameHeaderSize] ^= 0xff;
    InputLog out;
    const auto report = InputLog::deserialize_tolerant(bytes, &out);
    EXPECT_EQ(report.status.code(), StatusCode::kChecksumMismatch);
    EXPECT_EQ(report.frames_recovered, 3u);
    EXPECT_EQ(report.frames_declared, 5u);
    EXPECT_EQ(report.corrupt_offset, frames[3].offset);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_NE(report.to_string().find("record #3"), std::string::npos);
}

TEST(LogWire, FutureVersionIsAnExplicitVersionError)
{
    auto bytes = make_log(2).serialize();
    ASSERT_TRUE(wire::set_header_version(&bytes, wire::kVersion + 1).ok());
    InputLog out;
    const auto report = InputLog::deserialize_tolerant(bytes, &out);
    EXPECT_EQ(report.status.code(), StatusCode::kBadVersion);
    EXPECT_EQ(report.version, wire::kVersion + 1);
    EXPECT_NE(report.status.message().find("version"), std::string::npos);
}

TEST(LogWire, LoadReportsIoErrorForMissingFile)
{
    InputLog out;
    EXPECT_EQ(InputLog::load("/nonexistent/rsafe.bin", &out).code(),
              StatusCode::kIoError);
    const auto report =
        InputLog::load_tolerant("/nonexistent/rsafe.bin", &out);
    EXPECT_EQ(report.status.code(), StatusCode::kIoError);
}

TEST(LogRecordDecode, ErrorsNameFieldAndOffset)
{
    LogRecord in = sample_record(RecordType::kNicDma, 777);
    std::vector<std::uint8_t> bytes;
    in.serialize(&bytes);

    // Truncated mid-payload: the status says what was being read.
    std::vector<std::uint8_t> trunc(bytes.begin(), bytes.end() - 2);
    LogRecord out;
    wire::Reader trunc_in(trunc.data(), trunc.size(), "log record");
    const Status status = LogRecord::decode(trunc_in, &out);
    EXPECT_EQ(status.code(), StatusCode::kTruncated);
    EXPECT_FALSE(status.message().empty());

    // Unknown record type: malformed, not truncated.
    auto bad_type = bytes;
    bad_type[0] = 0x7f;
    wire::Reader bad_type_in(bad_type.data(), bad_type.size(), "log record");
    EXPECT_EQ(LogRecord::decode(bad_type_in, &out).code(),
              StatusCode::kMalformedRecord);

    // A kernel_mode byte other than 0 or 1 is not a boolean.
    for (const RecordType type :
         {RecordType::kRasAlarm, RecordType::kDetectorAlarm}) {
        LogRecord alarm = sample_record(type, 778);
        std::vector<std::uint8_t> alarm_bytes;
        alarm.serialize(&alarm_bytes);
        alarm_bytes[alarm_bytes.size() - 5] = 2;  // kernel_mode, then tid
        wire::Reader in(alarm_bytes.data(), alarm_bytes.size(), "log record");
        EXPECT_EQ(LogRecord::decode(in, &out).code(),
                  StatusCode::kMalformedRecord)
            << rnr::record_type_name(type);
    }
}

// ---------------------------------------------------------------------
// Checkpoint digests.
// ---------------------------------------------------------------------

TEST(CheckpointDigestWire, RoundTrip)
{
    replay::CheckpointDigest in;
    in.id = 11;
    in.icount = 22;
    in.cycles = 33;
    in.log_pos = 44;
    in.cpu_hash = 0x5555;
    in.pages_hash = 0x6666;
    in.blocks_hash = 0x7777;
    in.ras_hash = 0x8888;

    const auto bytes = in.serialize();
    replay::CheckpointDigest out;
    ASSERT_TRUE(replay::CheckpointDigest::deserialize(bytes, &out).ok());
    EXPECT_TRUE(out == in);
    EXPECT_FALSE(out.to_string().empty());
}

TEST(CheckpointDigestWire, RejectsDamageAndCrossFeeding)
{
    replay::CheckpointDigest digest;
    digest.cpu_hash = 0xabcdef;
    auto bytes = digest.serialize();

    // Bit rot in the payload.
    auto flipped = bytes;
    flipped[wire::kHeaderSize + wire::kFrameHeaderSize + 3] ^= 1;
    replay::CheckpointDigest out;
    EXPECT_EQ(replay::CheckpointDigest::deserialize(flipped, &out).code(),
              StatusCode::kChecksumMismatch);

    // An input-log image is not a digest.
    const auto log_image = make_log(1).serialize();
    EXPECT_EQ(
        replay::CheckpointDigest::deserialize(log_image, &out).code(),
        StatusCode::kMalformedRecord);

    // Truncation.
    const std::vector<std::uint8_t> trunc(bytes.begin(), bytes.end() - 8);
    EXPECT_EQ(replay::CheckpointDigest::deserialize(trunc, &out).code(),
              StatusCode::kTruncated);
}

// ---------------------------------------------------------------------
// The fault injector itself.
// ---------------------------------------------------------------------

TEST(Injector, SameSeedSameMutation)
{
    const auto image = make_log(5).serialize();
    for (const fault::FaultKind kind : fault::kAllFaultKinds) {
        fault::Injector a(42), b(42);
        auto image_a = image, image_b = image;
        fault::FaultReport ra, rb;
        ASSERT_TRUE(a.inject(kind, &image_a, &ra).ok());
        ASSERT_TRUE(b.inject(kind, &image_b, &rb).ok());
        EXPECT_EQ(image_a, image_b) << fault_kind_name(kind);
        EXPECT_EQ(ra.detail, rb.detail);
        EXPECT_FALSE(ra.detail.empty());
    }
}

TEST(Injector, DifferentSeedsDiverge)
{
    const auto image = make_log(16).serialize();
    auto image_a = image, image_b = image;
    fault::Injector a(1), b(2);
    fault::FaultReport report;
    ASSERT_TRUE(a.inject(fault::FaultKind::kBitFlip, &image_a, &report)
                    .ok());
    ASSERT_TRUE(b.inject(fault::FaultKind::kBitFlip, &image_b, &report)
                    .ok());
    EXPECT_NE(image_a, image_b);
}

TEST(Injector, RefusesImagesTooSmallForTheFault)
{
    const auto one_frame = make_log(1).serialize();
    fault::Injector injector(7);
    fault::FaultReport report;
    auto copy = one_frame;
    EXPECT_EQ(injector
                  .inject(fault::FaultKind::kDuplicateRecord, &copy,
                          &report)
                  .code(),
              StatusCode::kInvalidArgument);
    copy = one_frame;
    EXPECT_EQ(injector
                  .inject(fault::FaultKind::kReorderRecords, &copy,
                          &report)
                  .code(),
              StatusCode::kInvalidArgument);

    std::vector<std::uint8_t> garbage = {1, 2, 3};
    EXPECT_EQ(injector.inject(fault::FaultKind::kBitFlip, &garbage,
                              &report)
                  .code(),
              StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rsafe
