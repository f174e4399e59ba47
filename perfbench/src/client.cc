/**
 * @file
 * The client subcommand: all load on the real daemon comes from this
 * one process, one thread per connection (two for an open-loop
 * connection: a scheduled sender and a receiver).
 *
 *   client --mode serve-query  closed loop at a fixed pipeline window
 *                              on --conns connections for --closed-s
 *                              seconds, then --open-n queries open loop
 *                              at --open-rate per second;
 *   client --mode ingest       the generated event stream on one
 *                              connection, --window frames at a time,
 *                              for --timed-s seconds, then an ending
 *                              that completes the jobs submitted so
 *                              far with a checkpoint kRecoveryTail
 *                              events before its end, beside an
 *                              open-loop query connection at
 *                              --open-rate until the stream stops.
 *
 * Every response is checked: status Ok, every event applied, and each
 * query's answer equal to every other answer to the same query (the
 * state is static during serve-query; run.py then compares them with
 * the daemon's bound dump). --pid names the daemon whose CPU time is
 * sampled around the timed phase. Prints one JSON object.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hh"
#include "perfbench.hh"

namespace perfbench {
namespace {

std::vector<uint32_t>
readIndex(const std::string &path)
{
    const std::string bytes = readFile(path);
    std::vector<uint32_t> index(bytes.size() / 4);
    std::memcpy(index.data(), bytes.data(), index.size() * 4);
    return index;
}

/** One line per distinct query answered: index, known, upper, lower,
 *  answered grid quantile. */
bool
writeAnswers(const std::string &path, const AnswerTable &table)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    for (size_t i = 0; i < table.first.size(); ++i) {
        if (!table.seen[i])
            continue;
        const char *a = table.first[i].data();
        std::fprintf(out, "%zu\t%d\t%.17g\t%.17g\t%.4f\n", i, a[0],
                     getRaw<double>(a + 1), getRaw<double>(a + 9),
                     getRaw<double>(a + 17));
    }
    return std::fclose(out) == 0;
}

int
serveQuery(const Args &args)
{
    const int port = static_cast<int>(args.num("port", 0));
    const long pid = static_cast<long>(args.num("pid", 0));
    const size_t conns = static_cast<size_t>(args.num("conns", 2));
    const size_t window = static_cast<size_t>(args.num("window", 64));
    const size_t distinct = static_cast<size_t>(args.num("distinct", 0));
    const FrameRing ring(readFile(args.str("frames", "")));
    const std::vector<uint32_t> index = readIndex(args.str("index", ""));
    if (ring.size() == 0 || window == 0 || ring.size() % window != 0 ||
        index.size() != ring.size() || distinct == 0) {
        std::fprintf(stderr, "client: bad query ring\n");
        return 2;
    }
    for (uint32_t idx : index) {
        if (idx >= distinct) {
            std::fprintf(stderr, "client: query index out of range\n");
            return 2;
        }
    }

    // Closed loop: a warm-up, then whole slices of the timed phase.
    const double warmup = args.num("warmup-s", 0.5);
    const double slice = args.num("slice-s", 0.5);
    const size_t slices = static_cast<size_t>(args.num("closed-s", 4) / slice);
    AnswerTable table(distinct);
    std::atomic<uint64_t> progress{0};
    ClosedLoop closed;
    std::thread loop([&] {
        closed = runClosedLoop(port, ring, index.data(), conns, window,
                               warmup + (static_cast<double>(slices) + 0.5) *
                                            slice,
                               &table, &progress);
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    SliceSampler sampler(progress, pid, slice, slices);
    loop.join();
    sampler.stop();

    std::atomic<bool> never{false};
    OpenLoop open;
    if (!runOpenLoop(port, ring, index.data(), args.num("open-rate", 20000),
                     static_cast<uint64_t>(args.num("open-n", 80000)), never,
                     &table, &open)) {
        std::fprintf(stderr, "client: open-loop connect failed\n");
        return 1;
    }
    if (!writeAnswers(args.str("answers-out", "answers.tsv"), table)) {
        std::fprintf(stderr, "client: cannot write answers\n");
        return 1;
    }
    std::printf("{\"closed_answers\": %llu, \"closed_failed\": %llu, "
                "\"closed_slices\": %s, \"mismatches\": %llu, %s}\n",
                static_cast<unsigned long long>(closed.answered),
                static_cast<unsigned long long>(closed.failed),
                sampler.json().c_str(),
                static_cast<unsigned long long>(table.mismatches),
                open.json("open").c_str());
    return 0;
}

int
ingest(const Args &args)
{
    const int port = static_cast<int>(args.num("port", 0));
    const long pid = static_cast<long>(args.num("pid", 0));
    const size_t window = static_cast<size_t>(args.num("window", 64));
    const double timed_s = args.num("timed-s", 15);
    const FrameRing stream(readFile(args.str("frames", "")));
    const std::string kinds = readFile(args.str("kinds", ""));
    const std::vector<uint32_t> ids = readIndex(args.str("jobs", ""));
    const FrameRing oring(readFile(args.str("oframes", "")));
    constexpr char kEvent = static_cast<char>(kOpEvent);
    const size_t stream_events =
        static_cast<size_t>(std::count(kinds.begin(), kinds.end(), kEvent));
    if (stream.size() == 0 || window == 0 || kinds.size() != stream.size() ||
        ids.size() != stream_events || oring.size() == 0 ||
        stream_events < 4 * kRecoveryTail) {
        std::fprintf(stderr, "client: bad event stream\n");
        return 2;
    }
    // Per frame: its job's 1-based id (a query rides with the Submit
    // after it), whether it is an event and whether that is a Start.
    std::vector<uint32_t> job(stream.size());
    std::vector<uint8_t> is_start(stream.size(), 0);
    for (size_t i = stream.size(), e = ids.size(); i-- > 0;) {
        if (kinds[i] == kEvent) {
            --e;
            is_start[i] = ids[e] & 1;
        }
        job[i] = ids[std::min(e, ids.size() - 1)] >> 1;
    }

    const int fd = connectTo(port);
    if (fd < 0) {
        std::fprintf(stderr, "client: connect failed\n");
        return 1;
    }
    std::atomic<bool> stream_done{false};
    OpenLoop open;
    bool open_ok = true;
    std::thread reader_conn([&] {
        open_ok = runOpenLoop(port, oring, nullptr, args.num("open-rate", 1000),
                              UINT64_MAX, stream_done, nullptr, &open);
    });

    // The stream connection writes up to --window frames at once, then
    // reads their responses. An event must come back Ok | applied=1.
    FrameReader reader(fd);
    uint64_t queries = 0, failed = 0, events_sent = 0;
    std::atomic<uint64_t> events{0};
    std::string checkpoint;
    appendRequest(checkpoint, kOpCheckpoint, "");
    constexpr size_t kCheckpoint = SIZE_MAX;
    std::string batch;
    std::vector<char> batch_kinds;
    auto send = [&](const std::vector<size_t> &frames) {
        for (size_t from = 0; from < frames.size(); from += window) {
            const size_t n = std::min(window, frames.size() - from);
            batch.clear();
            batch_kinds.clear();
            for (size_t k = from; k < from + n; ++k) {
                const size_t f = frames[k];
                if (f == kCheckpoint) {
                    batch += checkpoint;
                    batch_kinds.push_back(static_cast<char>(kOpCheckpoint));
                } else {
                    batch.append(stream.frame(f), stream.span(f, 1));
                    batch_kinds.push_back(kinds[f]);
                    events_sent += kinds[f] == kEvent;
                }
            }
            if (!writeAll(fd, batch.data(), batch.size())) {
                failed += frames.size() - from;
                return false;
            }
            for (size_t k = 0; k < n; ++k) {
                std::string_view payload = reader.next();
                if (batch_kinds[k] == static_cast<char>(kOpQuery))
                    isOkAnswer(payload) ? ++queries : ++failed;
                else if (batch_kinds[k] == static_cast<char>(kOpCheckpoint))
                    failed += payload.size() != 1 ||
                              static_cast<uint8_t>(payload[0]) != kStatusOk;
                else if (payload.size() >= 2 &&
                         static_cast<uint8_t>(payload[0]) == kStatusOk &&
                         payload[1] == 1)
                    events.fetch_add(1, std::memory_order_relaxed);
                else
                    ++failed;
            }
        }
        return true;
    };

    // Timed phase: whole windows of the stream, in order, until
    // --timed-s has passed, keeping room in the stream for the ending.
    SliceSampler sampler(events, pid, args.num("slice-s", 0.5), SIZE_MAX);
    const int64_t deadline = nowNs() + static_cast<int64_t>(timed_s * 1e9);
    size_t at = 0;
    bool ok = true;
    std::vector<size_t> frames;
    while (ok && nowNs() < deadline &&
           stream_events - events_sent > 3 * kRecoveryTail) {
        frames.clear();
        for (size_t k = 0; k < window; ++k)
            frames.push_back(at++);
        ok = send(frames);
    }
    const bool exhausted = ok && nowNs() < deadline;
    sampler.stop();

    // The ending sends every remaining event of the jobs submitted
    // before a cut, and no other: the jobs sent are then the trace's
    // first K, whose --drive is the reference. A checkpoint of every
    // shard goes exactly kRecoveryTail events before the end, so the
    // state a kill leaves is a snapshot plus a WAL tail of the same
    // length on every run, and recovery (this workload's set-up)
    // replays the same number of events. Events after the cut are
    // Starts of the pending jobs; a cut past a Submit adds two events
    // (it and its Start), past a Start none, so the cut is the first
    // at which the tail reaches kRecoveryTail and the checkpoint moves
    // one event later when the tail overshoots by one.
    size_t submitted = 0, pending = 0, after = 0;
    for (size_t f = 0; f < at; ++f)
        if (kinds[f] == kEvent)
            is_start[f] ? --pending : (++submitted, ++pending);
    size_t cut = at;
    while (after + pending < kRecoveryTail) {
        if (kinds[cut] == kEvent) {
            ++after;
            is_start[cut] ? --pending : (++submitted, ++pending);
        }
        ++cut;
    }
    size_t before_checkpoint = after + pending - kRecoveryTail;
    bool placed = false;
    frames.clear();
    for (size_t f = at; f < cut; ++f) {
        if (!placed && kinds[f] == kEvent && before_checkpoint-- == 0) {
            frames.push_back(kCheckpoint);
            placed = true;
        }
        frames.push_back(f);
    }
    if (!placed)
        frames.push_back(kCheckpoint);
    for (size_t f = cut; f < stream.size() && pending > 0; ++f) {
        if (kinds[f] == kEvent && is_start[f] && job[f] <= submitted) {
            frames.push_back(f);
            --pending;
        }
    }
    if (ok)
        ok = send(frames);
    stream_done.store(true);
    reader_conn.join();
    close(fd);
    if (!open_ok) {
        std::fprintf(stderr, "client: open-loop connect failed\n");
        return 1;
    }
    std::printf("{\"events\": %llu, \"events_sent\": %llu, "
                "\"jobs_sent\": %zu, \"frames_sent\": %zu, "
                "\"exhausted\": %s, \"stream_queries\": %llu, "
                "\"stream_failed\": %llu, \"stream_slices\": %s, %s}\n",
                static_cast<unsigned long long>(events.load()),
                static_cast<unsigned long long>(events_sent), submitted,
                at + frames.size(), exhausted ? "true" : "false",
                static_cast<unsigned long long>(queries),
                static_cast<unsigned long long>(failed),
                sampler.json().c_str(), open.json("open").c_str());
    return 0;
}

} // namespace

int
runClient(const Args &args)
{
    const std::string mode = args.str("mode", "");
    if (mode == "serve-query")
        return serveQuery(args);
    if (mode == "ingest")
        return ingest(args);
    std::fprintf(stderr, "client: unknown mode '%s'\n", mode.c_str());
    return 2;
}

} // namespace perfbench
