/**
 * @file
 * Load-generation primitives over qdel_serve's binary protocol, used
 * by the client subcommand against the real daemon.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "frames.hh"

namespace perfbench {

int64_t nowNs();

std::string readFile(const std::string &path);

/** Total on-CPU time of every thread of process @p pid, nanoseconds. */
int64_t processCpuNs(long pid);

/** Connect to 127.0.0.1:@p port with TCP_NODELAY; -1 on failure. */
int connectTo(int port);

bool writeAll(int fd, const char *data, size_t n);

/** Buffered reader of response frames from one socket. */
class FrameReader
{
  public:
    explicit FrameReader(int fd) : fd_(fd), buf_(1 << 16) {}

    /** Next frame's payload (status byte first); empty on EOF/error.
     *  With @p timeout_ms >= 0, returns empty and sets *timed_out when
     *  no complete frame arrives in time. */
    std::string_view next(int timeout_ms = -1, bool *timed_out = nullptr);

  private:
    int fd_;
    std::vector<char> buf_;
    size_t begin_ = 0;
    size_t end_ = 0;
};

/** True for an Ok query answer of the expected size. */
bool isOkAnswer(std::string_view payload);

/** Concatenated request frames, indexed. */
struct FrameRing
{
    std::string bytes;
    std::vector<size_t> offsets;  //!< offsets.size() == frames + 1.

    explicit FrameRing(std::string frames);

    size_t size() const { return offsets.size() - 1; }
    const char *frame(size_t i) const { return bytes.data() + offsets[i]; }
    size_t span(size_t i, size_t n) const { return offsets[i + n] - offsets[i]; }
};

/**
 * First answer seen for each distinct query, and how many later
 * answers differed from it. One table per thread, merged at the end.
 */
struct AnswerTable
{
    std::vector<std::array<char, kAnswerBodyBytes>> first;
    std::vector<uint8_t> seen;
    uint64_t mismatches = 0;

    explicit AnswerTable(size_t distinct) : first(distinct), seen(distinct, 0) {}

    void record(uint32_t idx, std::string_view body);
    void merge(const AnswerTable &other);
};

/** Outcome of a closed-loop phase. */
struct ClosedLoop
{
    uint64_t answered = 0;
    uint64_t failed = 0;
    double wallSeconds = 0.0;
};

/**
 * Closed loop on @p conns connections for @p seconds: each connection
 * writes @p window frames of @p ring at once and reads their answers
 * before writing the next window. With @p index and @p table, every
 * answer is recorded under its distinct-query index.
 */
ClosedLoop runClosedLoop(int port, const FrameRing &ring,
                         const uint32_t *index, size_t conns, size_t window,
                         double seconds, AnswerTable *table,
                         std::atomic<uint64_t> *progress = nullptr);

/** Work done, time taken and CPU used by the daemon in one slice. */
struct Slice
{
    uint64_t ops = 0;
    double seconds = 0.0;
    double cpuSeconds = 0.0;
};

/**
 * Cuts a timed phase into fixed slices: a thread samples an operation
 * counter and process @p pid's CPU time every @p period seconds, for
 * at most @p limit slices or until stop(). Only whole slices count, so
 * a run's rate can be reported as the median over its slices.
 */
class SliceSampler
{
  public:
    SliceSampler(const std::atomic<uint64_t> &progress, long pid,
                 double period, size_t limit);
    ~SliceSampler() { stop(); }
    SliceSampler(const SliceSampler &) = delete;
    SliceSampler &operator=(const SliceSampler &) = delete;

    /** Join the sampler; returns the whole slices taken. */
    const std::vector<Slice> &stop();

    /** JSON array of [ops, seconds, cpu seconds] triples. */
    std::string json() const;

  private:
    std::vector<Slice> slices_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** Outcome of one open-loop connection. */
struct OpenLoop
{
    std::vector<double> latencyUs;  //!< From each scheduled send time.
    std::vector<double> lagUs;      //!< Send time minus scheduled time.
    uint64_t sent = 0;
    uint64_t failed = 0;

    double latencyPercentile(double p);
    double meanLagUs() const;
    /** "prefix_n", "prefix_p50_us", ... as JSON members. */
    std::string json(const char *prefix);
};

/**
 * Open-loop queries from @p ring at @p rate per second on a new
 * connection: at most @p limit, and none scheduled once @p stop is
 * true. @p table (may be null) records each answer. False when the
 * connection cannot be made.
 */
bool runOpenLoop(int port, const FrameRing &ring, const uint32_t *index,
                 double rate, uint64_t limit, const std::atomic<bool> &stop,
                 AnswerTable *table, OpenLoop *out);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
