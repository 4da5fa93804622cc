#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "rnr/wire.h"

/**
 * @file
 * Fuzz target: the raw wire-format frame walker.
 *
 * Feeds arbitrary bytes to wire::read_frames() under both payload kinds
 * and to wire::index_frames(). The walker's contract is that it never
 * crashes, never reads out of bounds (the sink re-touches every byte it
 * is handed), and that every offset/length pair it reports stays inside
 * the image. Built with -fsanitize=fuzzer under Clang; under other
 * toolchains tools/fuzz_driver.cc supplies a corpus-replay main.
 */

namespace wire = rsafe::rnr::wire;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    const std::vector<std::uint8_t> bytes(data, data + size);

    for (const auto kind : {wire::PayloadKind::kInputLog,
                            wire::PayloadKind::kCheckpointDigest}) {
        volatile std::uint8_t sink_byte = 0;
        const wire::LoadReport report = wire::read_frames(
            bytes, kind,
            [&](std::uint64_t, wire::Reader& frame) {
                // Every frame handed out must lie inside the image.
                const auto payload = frame.rest();
                if (payload.data() < bytes.data() ||
                    payload.data() + payload.size() >
                        bytes.data() + bytes.size())
                    std::abort();
                for (const std::uint8_t byte : payload)
                    sink_byte = sink_byte ^ byte;
                return rsafe::Status();
            });
        // The forensic fields must be self-consistent whatever the input.
        if (report.bytes_total != bytes.size())
            std::abort();
        if (report.corrupt_offset > report.bytes_total)
            std::abort();
        if (report.intact() && report.frames_recovered !=
                                   report.frames_declared)
            std::abort();
        (void)report.to_string();
    }

    std::vector<wire::FrameSpan> spans;
    if (wire::index_frames(bytes, &spans).ok()) {
        for (const auto& span : spans)
            if (span.offset > bytes.size() ||
                span.size > bytes.size() - span.offset)
                std::abort();
    }
    return 0;
}
