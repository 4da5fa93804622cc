#ifndef RSAFE_RNR_WIRE_H_
#define RSAFE_RNR_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

/**
 * @file
 * The hardened wire format shared by every serialized artifact that
 * crosses a machine boundary (the input log shipped from the recorded VM
 * to the replayers, checkpoint state digests).
 *
 * The log is the only channel between the recorded VM and the two
 * replayers (Figure 1); a corrupted or truncated log silently breaks the
 * determinism the alarm-replay verdicts depend on. Version 2 therefore
 * wraps every payload in a checksummed, versioned envelope:
 *
 *   Header (32 bytes):
 *     [ 0..8)   u64  magic       "RSAFEWIR"
 *     [ 8..10)  u16  version     (2)
 *     [10..12)  u16  payload kind (PayloadKind)
 *     [12..16)  u32  flags       (0, reserved)
 *     [16..24)  u64  frame count
 *     [24..28)  u32  reserved    (0)
 *     [28..32)  u32  CRC32C of bytes [0..28)
 *
 *   Frame (one record / one digest), repeated `frame count` times:
 *     [0..4)    u32  sequence number (0-based, consecutive)
 *     [4..8)    u32  payload length
 *     [8..12)   u32  CRC32C of (sequence ++ length ++ payload)
 *     [12..12+length)  payload bytes
 *
 * The frame CRC detects bit rot anywhere in the frame; the sequence
 * number detects record duplication and reordering even when every
 * individual frame is internally consistent. Decoding is
 * truncation-tolerant: read_frames() recovers every intact frame before
 * the first defect and reports exactly where and why decoding stopped
 * (LoadReport), so a replayer can run up to the corruption boundary
 * instead of aborting.
 *
 * Inside a frame, every payload lays out its fields with the one field
 * codec below: Writer appends little-endian integers, strict booleans,
 * byte runs and u32-length-prefixed strings; Reader reads them back
 * bounds-checked. A field that overruns its frame is kTruncated for
 * every payload, a value out of range is kMalformedRecord, and a frame
 * its decoder did not read to the end is kMalformedRecord too.
 */

namespace rsafe::rnr::wire {

/** CRC32C (Castagnoli), bit-reflected, init/final XOR 0xffffffff. */
std::uint32_t crc32c(const std::uint8_t* data, std::size_t len);
std::uint32_t crc32c(const std::vector<std::uint8_t>& data);

/** FNV-1a 64-bit over raw bytes (state digests). @{ */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t len,
                      std::uint64_t seed = kFnvOffset);
std::uint64_t fnv1a64_u64(std::uint64_t value, std::uint64_t seed);
/** @} */

/**
 * Appends little-endian fields to a byte vector: the encoder of every
 * payload, and of the wire envelope itself.
 */
class Writer {
  public:
    explicit Writer(std::vector<std::uint8_t>* out) : out_(out) {}

    void u8(std::uint8_t value) { out_->push_back(value); }
    void u16(std::uint16_t value) { put(value); }
    void u32(std::uint32_t value) { put(value); }
    void u64(std::uint64_t value) { put(value); }

    /** A boolean as a @p T-wide 0 or 1 (Reader::flag's counterpart). */
    template <typename T = std::uint8_t>
    void flag(bool value)
    {
        put(static_cast<T>(value ? 1 : 0));
    }

    void bytes(std::span<const std::uint8_t> data)
    {
        out_->insert(out_->end(), data.begin(), data.end());
    }

    /** A u32 length, then the characters. */
    void string(const std::string& text);

  private:
    template <typename T>
    void put(T value)
    {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            out_->push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }

    std::vector<std::uint8_t>* out_;
};

/**
 * A bounds-checked cursor over one frame's bytes (or any byte run).
 *
 * Errors are sticky: the first failure — an overrun (kTruncated), a
 * non-boolean flag, an oversized string or count, or a caller's fail()
 * (kMalformedRecord) — is kept, and every later read returns 0 (or an
 * empty run) without advancing. A decoder therefore reads all of its
 * fields and checks status() once; range checks on decoded values go
 * through fail() so that the first defect is the one reported.
 */
class Reader {
  public:
    /** @p label names the payload in error messages ("policy frame"). */
    Reader(const std::uint8_t* data, std::size_t size, const char* label)
        : begin_(data), pos_(data), end_(data + size), label_(label)
    {
    }

    std::uint8_t u8() { return get<std::uint8_t>("u8"); }
    std::uint16_t u16() { return get<std::uint16_t>("u16"); }
    std::uint32_t u32() { return get<std::uint32_t>("u32"); }
    std::uint64_t u64() { return get<std::uint64_t>("u64"); }

    /** A @p T-wide boolean; any value but 0 or 1 is kMalformedRecord. */
    template <typename T = std::uint8_t>
    bool flag()
    {
        const T value = get<T>("flag");
        if (value > 1)
            bad_flag(value);
        return value == 1;
    }

    /** @p out.size() consecutive @p T fields, bounds-checked once. */
    template <typename T>
    void array(std::span<T> out)
    {
        const auto run = bytes(out.size() * sizeof(T));
        if (run.size() != out.size() * sizeof(T))
            return;
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = load<T>(run.data() + i * sizeof(T));
    }

    /** The next @p n bytes (empty, and kTruncated, if fewer remain). */
    std::span<const std::uint8_t> bytes(std::size_t n);

    /** Every byte not read yet. */
    std::span<const std::uint8_t> rest() { return bytes(remaining()); }

    /** A u32-length-prefixed string; longer than @p max_len is
     *  kMalformedRecord. */
    std::string string(std::uint32_t max_len);

    /**
     * A @p T-wide element count, checked before the caller allocates:
     * a count above @p cap, or one whose @p elem_bytes-sized elements
     * cannot fit in the bytes left, is kMalformedRecord (and reads 0).
     */
    template <typename T = std::uint32_t>
    T count(std::size_t elem_bytes,
            std::uint64_t cap = std::numeric_limits<std::uint64_t>::max())
    {
        const T n = get<T>("count");
        return fits(n, elem_bytes, cap) ? n : 0;
    }

    /** Record @p code unless an earlier error stands; returns status(). */
    const Status& fail(StatusCode code, std::string message);

    const Status& status() const { return status_; }
    bool ok() const { return status_.ok(); }
    /** Bytes consumed so far. */
    std::size_t pos() const { return static_cast<std::size_t>(pos_ - begin_); }
    /** Bytes left (0 once an error stands). */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - pos_);
    }

  private:
    template <typename T>
    static T load(const std::uint8_t* p)
    {
        T value = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            value |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
        return value;
    }

    template <typename T>
    T get(const char* what)
    {
        if (remaining() < sizeof(T)) {
            overrun(what);
            return 0;
        }
        const T value = load<T>(pos_);
        pos_ += sizeof(T);
        return value;
    }

    void overrun(const char* what);
    void bad_flag(std::uint64_t value);
    bool fits(std::uint64_t n, std::size_t elem_bytes, std::uint64_t cap);

    const std::uint8_t* begin_;
    const std::uint8_t* pos_;
    const std::uint8_t* end_;
    const char* label_;
    Status status_;
};

/** "RSAFEWIR", little-endian. */
inline constexpr std::uint64_t kMagic = 0x5249574546415352ULL;

/** The wire version this build writes and reads. */
inline constexpr std::uint16_t kVersion = 2;

inline constexpr std::size_t kHeaderSize = 32;
inline constexpr std::size_t kFrameHeaderSize = 12;

/** Upper bound on a single frame payload (sanity check on length). */
inline constexpr std::uint32_t kMaxFrameLength = 1u << 26;

/** What the framed payload is (guards cross-feeding artifacts). */
enum class PayloadKind : std::uint16_t {
    kInputLog = 1,
    kCheckpointDigest = 2,
    kForensicReport = 3,
    kPolicyTable = 4,
    kCheckpointImage = 5,
    kFlightBox = 6,
};

/** Decoded wire header. */
struct Header {
    std::uint64_t magic = kMagic;
    std::uint16_t version = kVersion;
    PayloadKind kind = PayloadKind::kInputLog;
    std::uint32_t flags = 0;
    std::uint64_t frame_count = 0;
};

/** Append the 32-byte encoding of @p header (CRC computed here). */
void encode_header(const Header& header, std::vector<std::uint8_t>* out);

/**
 * Decode and validate the header at the front of @p bytes.
 * Checks length, magic, version, and the header CRC — in that order, so
 * a legacy or foreign file reports kBadMagic/kBadVersion, not a
 * checksum error.
 */
Status decode_header(const std::vector<std::uint8_t>& bytes, Header* out);

/** Append one frame (sequence + length + CRC + payload) to @p out. */
void append_frame(std::uint32_t seq, const std::uint8_t* payload,
                  std::size_t len, std::vector<std::uint8_t>* out);

/**
 * Rewrite the version field of an encoded image in place and re-seal the
 * header CRC (fault injection / forward-compatibility tests).
 */
Status set_header_version(std::vector<std::uint8_t>* image,
                          std::uint16_t version);

/** Where and why a decode stopped (the forensic record). */
struct LoadReport {
    Status status;  ///< kOk iff the whole image decoded intact
    std::uint16_t version = 0;
    std::uint64_t frames_declared = 0;
    std::uint64_t frames_recovered = 0;
    std::uint64_t bytes_total = 0;
    /** Byte offset at which decoding stopped (== bytes_total if intact). */
    std::uint64_t corrupt_offset = 0;

    bool intact() const { return status.ok(); }

    /** One-line forensic summary. */
    std::string to_string() const;
};

/**
 * Consumer of one decoded frame: its sequence number and a Reader over
 * its payload. Returning an error (or leaving one in the Reader) stops
 * the walk there; so does returning OK with bytes left unread. The
 * frame then does not count as recovered.
 */
using FrameSink = std::function<Status(std::uint64_t seq, Reader& frame)>;

/**
 * Walk every frame of @p bytes, feeding intact frames to @p sink in
 * order. Never throws on malformed input: decoding stops at the first
 * defect (truncation, checksum mismatch, duplicate/reordered sequence,
 * sink rejection, a frame the sink did not read to its end, trailing
 * garbage) and the report says what was recovered and what was lost.
 */
LoadReport read_frames(const std::vector<std::uint8_t>& bytes,
                       PayloadKind expected_kind, const FrameSink& sink);

/**
 * Index the frame extents of an intact image (offset and total size,
 * header included, of every frame). Fault injectors use this to aim
 * mutations at specific records.
 */
struct FrameSpan {
    std::size_t offset = 0;  ///< first byte of the frame header
    std::size_t size = 0;    ///< frame header + payload bytes
};
Status index_frames(const std::vector<std::uint8_t>& bytes,
                    std::vector<FrameSpan>* out);

}  // namespace rsafe::rnr::wire

#endif  // RSAFE_RNR_WIRE_H_
