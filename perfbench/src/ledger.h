#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/**
 * @file
 * The benchmark's own span recorder.
 *
 * Spans are taken from outside the program, around each public layer
 * call the traced composition makes, on one thread. They are kept in
 * memory and written out as Chrome trace_event JSON when the run ends.
 * A layer's self time is its span's duration minus the time its child
 * spans cover; the composition is serial, so children never overlap.
 */

namespace perfbench {

/** Monotonic nanoseconds (std::chrono::steady_clock). */
std::int64_t now_ns();

/** One closed (or still open: end_ns == -1) span. */
struct SpanRecord {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;  ///< index of the parent span, -1 for a root
    std::uint32_t run_id = 0;
};

/** Per-run digest of one root span and everything under it. */
struct RunLedger {
    double root_ms = 0.0;
    /** Every span's duration, by name, in start order (root included). */
    std::map<std::string, std::vector<double>> durations;
    /** Self time (duration minus child coverage) summed by name. */
    std::map<std::string, double> self_ms;
    /** Fraction of the root covered by its direct children. */
    double coverage = 0.0;
    /** The largest stretch of the root no child covers, and the span it
     *  follows ("start" when it opens the root). */
    double largest_gap_ms = 0.0;
    std::string largest_gap_after;

    /** Summed duration / number of the spans named @p name. @{ */
    double total_ms(const std::string& name) const;
    std::size_t count(const std::string& name) const;
    /** @} */
};

class Ledger {
  public:
    /** RAII span; a no-op when the ledger is disabled. */
    class Span {
      public:
        Span(Ledger* ledger, const char* name);
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

      private:
        Ledger* ledger_;
        int index_ = -1;
    };

    void set_enabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one. */
    Span span(const char* name) { return Span(this, name); }

    /** Begin a new run id (one root span per run). */
    void next_run() { ++run_id_; }
    std::uint32_t run_id() const { return run_id_; }

    /** Digest the spans of run @p run_id (its root must be closed). */
    RunLedger digest(std::uint32_t run_id) const;

    /** Write every span as Chrome trace_event JSON. @return success. */
    bool write_chrome_json(const std::string& path) const;

  private:
    int open(const char* name);
    void close(int index);

    bool enabled_ = true;
    std::uint32_t run_id_ = 0;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
