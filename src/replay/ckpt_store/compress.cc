#include "replay/ckpt_store/compress.h"

#include <cstring>
#include <string>

namespace rsafe::replay::ckpt {

namespace {

/** Length of the byte run starting at @p i (capped at kMaxRun). */
std::size_t
run_length(const std::uint8_t* data, std::size_t len, std::size_t i)
{
    const std::uint8_t value = data[i];
    std::size_t n = 1;
    while (n < kMaxRun && i + n < len && data[i + n] == value)
        ++n;
    return n;
}

/**
 * The one token loop behind rle_decompress and rle_validate: decodes into
 * @p out unless it is null, and ORs every decoded byte into @p any when
 * that is non-null.
 */
Status
rle_walk(const std::uint8_t* data, std::size_t len, std::uint8_t* out,
         std::size_t out_len, std::uint8_t* any)
{
    std::size_t in = 0;
    std::size_t produced = 0;
    while (in < len) {
        const std::uint8_t control = data[in++];
        if (control < 0x80) {
            const std::size_t n = static_cast<std::size_t>(control) + 1;
            if (len - in < n)
                return Status(StatusCode::kMalformedRecord,
                              "rle literal token overruns the input");
            if (out_len - produced < n)
                return Status(StatusCode::kMalformedRecord,
                              "rle literal token overflows the page");
            if (out != nullptr)
                std::memcpy(out + produced, data + in, n);
            if (any != nullptr) {
                for (std::size_t i = 0; i < n; ++i)
                    *any |= data[in + i];
            }
            in += n;
            produced += n;
            continue;
        }
        const std::size_t n =
            static_cast<std::size_t>(control - 0x80) + kMinRun;
        if (in >= len)
            return Status(StatusCode::kMalformedRecord,
                          "rle repeat token overruns the input");
        if (out_len - produced < n)
            return Status(StatusCode::kMalformedRecord,
                          "rle repeat token overflows the page");
        if (out != nullptr)
            std::memset(out + produced, data[in], n);
        if (any != nullptr)
            *any |= data[in];
        ++in;
        produced += n;
    }
    if (produced != out_len) {
        return Status(StatusCode::kMalformedRecord,
                      "rle stream produced " + std::to_string(produced) +
                          " bytes, want " + std::to_string(out_len));
    }
    return Status();
}

}  // namespace

std::vector<std::uint8_t>
rle_compress(const std::uint8_t* data, std::size_t len)
{
    std::vector<std::uint8_t> out;
    out.reserve(len / 8);
    std::size_t i = 0;
    while (i < len) {
        const std::size_t run = run_length(data, len, i);
        if (run >= kMinRun) {
            out.push_back(static_cast<std::uint8_t>(0x80 + (run - kMinRun)));
            out.push_back(data[i]);
            i += run;
            continue;
        }
        // Literal: extend until the next worthwhile run (or 128 bytes).
        const std::size_t begin = i;
        std::size_t n = 0;
        while (i < len && n < 0x80) {
            if (run_length(data, len, i) >= kMinRun)
                break;
            ++i;
            ++n;
        }
        out.push_back(static_cast<std::uint8_t>(n - 1));
        out.insert(out.end(), data + begin, data + begin + n);
    }
    return out;
}

Status
rle_decompress(const std::uint8_t* data, std::size_t len, std::uint8_t* out,
               std::size_t out_len)
{
    return rle_walk(data, len, out, out_len, nullptr);
}

Status
rle_validate(const std::uint8_t* data, std::size_t len, std::size_t out_len,
             bool* all_zero)
{
    std::uint8_t any = 0;
    const Status status = rle_walk(data, len, nullptr, out_len, &any);
    *all_zero = any == 0;
    return status;
}

}  // namespace rsafe::replay::ckpt
