/**
 * @file
 * The benchmark's own encoder for qdel_serve's binary protocol
 * (serve/wire.hh documents the layout): u32 little-endian payload
 * length, then u8 opcode | body for requests and u8 status | body for
 * responses; strings are u64 length | bytes. Written independently of
 * the program's codec so that the load a benchmark run applies does not
 * change when the program's wire code does.
 */

#ifndef PERFBENCH_FRAMES_HH
#define PERFBENCH_FRAMES_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace perfbench {

constexpr uint8_t kOpEvent = 1;
constexpr uint8_t kOpQuery = 2;
constexpr uint8_t kOpCheckpoint = 4;
constexpr uint8_t kStatusOk = 0;
constexpr uint8_t kKindSubmit = 1;
constexpr uint8_t kKindStart = 2;

/** Encoded query answer body: u8 known | 4 x f64 | 3 x u64. */
constexpr size_t kAnswerBodyBytes = 1 + 4 * 8 + 3 * 8;

inline void
put(std::string &out, const void *bytes, size_t n)
{
    out.append(static_cast<const char *>(bytes), n);
}

template <typename T>
void
putRaw(std::string &out, T value)
{
    put(out, &value, sizeof(value));  // The protocol is little-endian,
                                      // as is every host this runs on.
}

inline void
putStr(std::string &out, std::string_view s)
{
    putRaw<uint64_t>(out, s.size());
    put(out, s.data(), s.size());
}

/** Append a complete request frame for @p opcode with @p body. */
inline void
appendRequest(std::string &out, uint8_t opcode, std::string_view body)
{
    putRaw<uint32_t>(out, static_cast<uint32_t>(body.size() + 1));
    putRaw<uint8_t>(out, opcode);
    put(out, body.data(), body.size());
}

inline std::string
queryBody(std::string_view machine, std::string_view queue, int procs,
          double quantile, bool upper)
{
    std::string body;
    putStr(body, machine);
    putStr(body, queue);
    putRaw<int64_t>(body, procs);
    putRaw<double>(body, quantile);
    putRaw<uint8_t>(body, upper ? 1 : 0);
    return body;
}

/** Event body with no client id: every event applies (no dedup fence),
 *  exactly as qdel_serve --drive ingests a trace. */
inline std::string
eventBody(uint8_t kind, uint64_t job_id, double time, int procs,
          std::string_view machine, std::string_view queue)
{
    std::string body;
    putRaw<uint8_t>(body, kind);
    putRaw<uint64_t>(body, job_id);
    putRaw<double>(body, time);
    putRaw<int64_t>(body, procs);
    putStr(body, machine);
    putStr(body, queue);
    putStr(body, "");
    putRaw<uint64_t>(body, 0);
    return body;
}

template <typename T>
T
getRaw(const char *at)
{
    T value;
    std::memcpy(&value, at, sizeof(value));
    return value;
}

} // namespace perfbench

#endif // PERFBENCH_FRAMES_HH
