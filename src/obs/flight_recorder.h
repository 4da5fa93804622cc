#ifndef RSAFE_OBS_FLIGHT_RECORDER_H_
#define RSAFE_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

/**
 * @file
 * The black-box flight recorder: an always-on bounded ring of the last
 * moments of a monitored run.
 *
 * Post-hoc traces answer "what happened over the whole run"; the flight
 * recorder answers "what happened right *before* it went wrong". Every
 * interesting live event — health-monitor samples, state transitions,
 * attack verdicts, session lifecycle notes, shutdown decisions — is
 * appended to a fixed-capacity ring from any thread. When something
 * worth investigating fires (an attack verdict, an SLO breach, an
 * abandon shutdown), dump() snapshots the ring into a FlightBox and
 * serializes it on the shared CRC32C wire format as
 * PayloadKind::kFlightBox, so the black box survives shipping exactly
 * like logs and checkpoints do, with the same strict Status-checked
 * decode (never abort on a damaged box) and the same fuzz coverage.
 * `rsafe-report --flight <file>` pretty-prints a dumped box.
 */

namespace rsafe::obs {

/** What kind of moment a flight entry captures. */
enum class FlightEntryKind : std::uint8_t {
    kNote = 0,        ///< freeform lifecycle note (session start/done…)
    kSample = 1,      ///< one health-monitor metric snapshot
    kTransition = 2,  ///< a health-state transition
    kVerdict = 3,     ///< an alarm-replay verdict (attacks always land)
    kShutdown = 4,    ///< a shutdown decision (drain/abandon)
};

/** @return a short stable name for @p kind. */
const char* flight_entry_kind_name(FlightEntryKind kind);

/** One retained black-box moment. */
struct FlightEntry {
    FlightEntryKind kind = FlightEntryKind::kNote;
    /** Milliseconds since the recorder was constructed. */
    std::uint64_t t_ms = 0;
    std::string tenant;
    std::string label;
    std::uint64_t value = 0;
    std::string detail;
};

/** A dumped snapshot of the ring (the wire-serializable black box). */
struct FlightBox {
    /** Why this dump was taken ("attack-verdict:<tenant>", …). */
    std::string reason;
    /** Entries ever appended to the ring (retained + shed). */
    std::uint64_t total_appended = 0;
    /** Entries shed from the ring before this dump. */
    std::uint64_t dropped = 0;
    /** Retained entries, oldest first. */
    std::vector<FlightEntry> entries;

    /** Encode as PayloadKind::kFlightBox (frame 0 = scalars, then one
     *  frame per entry, so a damaged entry frame loses only itself). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Strict decode of @p bytes into @p out. Malformed input (bad kind
     * byte, oversized string, trailing bytes, any wire defect) returns
     * the Status taxonomy — never aborts.
     */
    static Status deserialize(const std::vector<std::uint8_t>& bytes,
                              FlightBox* out);

    /** Human-readable transcript (rsafe-report --flight). */
    std::string to_string() const;

    /** JSON rendering of the same transcript. */
    std::string to_json() const;
};

/** The always-on bounded black-box ring. Thread-safe. */
class FlightRecorder {
  public:
    static constexpr std::size_t kDefaultCapacity = 2048;

    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

    /** Append one moment (any thread; oldest entry shed when full). */
    void record(FlightEntryKind kind, const std::string& tenant,
                const std::string& label, std::uint64_t value = 0,
                const std::string& detail = std::string());

    /**
     * Snapshot the ring as a FlightBox for @p reason and retain its
     * serialized bytes as latest(). Returns the box.
     */
    FlightBox dump(const std::string& reason);

    /** Serialized bytes of the most recent dump (empty if none yet). */
    std::vector<std::uint8_t> latest() const;

    /** Dumps taken so far. */
    std::uint64_t dumps() const;

    /** Entries ever appended (retained + shed). */
    std::uint64_t appended() const;

  private:
    std::uint64_t now_ms() const;

    const std::size_t capacity_;
    const std::uint64_t t0_ms_;

    mutable std::mutex mu_;
    std::vector<FlightEntry> ring_;
    std::size_t next_ = 0;
    bool wrapped_ = false;
    std::uint64_t total_appended_ = 0;
    std::uint64_t dumps_ = 0;
    std::vector<std::uint8_t> latest_;
};

class HealthMonitor;

/**
 * Black-box every state transition @p monitor emits into @p flight, and
 * dump the ring when a tenant turns critical. @p flight must outlive
 * the monitor's sampling.
 */
void record_transitions(HealthMonitor* monitor, FlightRecorder* flight);

}  // namespace rsafe::obs

#endif  // RSAFE_OBS_FLIGHT_RECORDER_H_
