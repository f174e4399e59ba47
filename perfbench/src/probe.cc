/**
 * @file
 * The layer probe behind a traced run: calls each module's public
 * functions on the workload's generated inputs, times them, and
 * reports one number per layer metric.
 *
 * Every layer call (or loop of like calls) is wrapped in a span (name,
 * start, end, parent) recorded in memory and written to spans.jsonl in
 * --out when the probe ends; a span's self time is its duration minus
 * what its child spans cover. Per-call costs of the predictors'
 * observe() and refit(), which run millions of times, come from a
 * second pass that times each call; an untimed pass of the same calls
 * (the predictor alone) gives the predictor time that the replay
 * engines' self times are taken from. The in-memory engine is also
 * timed alone, with a predictor that does nothing, so that the
 * replays' layer parts can be checked against an untraced run without
 * any part being defined as a remainder. The replay parts are timed in
 * rounds and reported as medians.
 *
 * The server layer (batching, wakeups) and the client's lag are read
 * by run.py from a real qdel_serve session, not measured here.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/predictor_factory.hh"
#include "core/rare_event.hh"
#include "loadgen.hh"
#include "obs/metrics.hh"
#include "perfbench.hh"
#include "persist/wal.hh"
#include "serve/bound_registry.hh"
#include "serve/service.hh"
#include "serve/wire.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/replay_simulator.hh"
#include "sim/replay/stream_replay.hh"
#include "trace/qtc_stream.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_loader.hh"

namespace perfbench {
namespace {

using namespace qdel;

/** In-memory span recorder; spans nest by scope. */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        int64_t start = 0;
        int64_t end = 0;
    };

    class Scope
    {
      public:
        Scope(Spans &spans, std::string name) : spans_(spans)
        {
            spans_.open(std::move(name));
        }
        ~Scope() { spans_.close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
    };

    void
    open(std::string name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        stack_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back({std::move(name), parent, nowNs(), 0});
    }

    void
    close()
    {
        spans_[stack_.back()].end = nowNs();
        stack_.pop_back();
    }

    /** Summed duration of every span named @p name, seconds. */
    double
    seconds(const std::string &name) const
    {
        int64_t total = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                total += s.end - s.start;
        return static_cast<double>(total) / 1e9;
    }

    /** Duration of each span named @p name in the order opened, seconds. */
    std::vector<double>
    each(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (s.name == name)
                out.push_back(static_cast<double>(s.end - s.start) / 1e9);
        return out;
    }

    bool
    write(const std::string &path) const
    {
        std::vector<int64_t> child(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            return false;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(out,
                         "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                         "\"start_ns\": %lld, \"end_ns\": %lld, "
                         "\"self_ns\": %lld}\n",
                         i, s.name.c_str(), s.parent,
                         static_cast<long long>(s.start),
                         static_cast<long long>(s.end),
                         static_cast<long long>(s.end - s.start - child[i]));
        }
        return std::fclose(out) == 0;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** The probe's report: metrics with units, failures, layer sums. */
struct Report
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    std::vector<std::string> failures;
    std::map<std::string, double> sums;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    void
    print() const
    {
        std::string json = "{";
        char buf[256];
        for (const auto &[name, m] : metrics) {
            std::snprintf(buf, sizeof(buf),
                          "\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}, ",
                          name.c_str(), m.first, m.second.c_str());
            json += buf;
        }
        json += "\"failures\": [";
        for (size_t i = 0; i < failures.size(); ++i) {
            json += i ? ", \"" : "\"";
            json += serve::jsonEscape(failures[i]);
            json += '"';
        }
        json += "], \"sums\": {";
        bool first = true;
        for (const auto &[name, value] : sums) {
            std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g",
                          first ? "" : ", ", name.c_str(), value);
            json += buf;
            first = false;
        }
        std::printf("%s}}\n", json.c_str());
    }
};

// --- predictors alone -------------------------------------------------

/**
 * The calls a replay makes on one queue's predictor, in order, with
 * like calls run together: the replay's §5.1 schedule (waits visible
 * at release, refits on 300 s epochs, score before observe, the
 * training prefix unscored) worked out ahead of time so that running
 * the program times the predictor and nothing else.
 */
struct CallProgram
{
    enum Kind : uint8_t { Observe, Refit, Score, Finalize };
    struct Call
    {
        Kind kind;
        uint32_t offset;  //!< Into values (Observe/Score).
        uint32_t count;
    };
    std::vector<Call> calls;
    std::vector<double> values;
    size_t observations = 0;
    size_t refits = 0;
    size_t scored = 0;

    void
    push(Kind kind, double value = 0.0)
    {
        const bool runs = kind == Observe || kind == Score;
        if (runs && !calls.empty() && calls.back().kind == kind) {
            ++calls.back().count;
        } else {
            calls.push_back({kind, static_cast<uint32_t>(values.size()),
                             runs ? 1u : 0u});
        }
        if (runs)
            values.push_back(value);
        observations += kind == Observe;
        refits += kind == Refit;
        scored += kind == Score;
    }
};

CallProgram
buildProgram(const trace::Trace &queue, double epoch, double train_fraction)
{
    struct Pending
    {
        double time;
        double wait;
        bool operator>(const Pending &o) const { return time > o.time; }
    };
    CallProgram program;
    const size_t training = static_cast<size_t>(
        train_fraction * static_cast<double>(queue.size()));
    std::vector<Pending> pending;
    double next_refit = queue.size() ? queue[0].submitTime : 0.0;
    bool finalized = false;
    for (size_t i = 0; i < queue.size(); ++i) {
        const trace::JobRecord &job = queue[i];
        for (;;) {
            const double release =
                pending.empty() ? 1e300 : pending.front().time;
            if (std::min(release, next_refit) > job.submitTime)
                break;
            if (release <= next_refit) {
                program.push(CallProgram::Observe, pending.front().wait);
                std::pop_heap(pending.begin(), pending.end(),
                              std::greater<Pending>{});
                pending.pop_back();
            } else {
                program.push(CallProgram::Refit);
                next_refit += epoch;
            }
        }
        if (!finalized && i >= training) {
            program.push(CallProgram::Finalize);
            program.push(CallProgram::Refit);
            finalized = true;
        }
        if (i >= training)
            program.push(CallProgram::Score, job.waitSeconds);
        pending.push_back({job.submitTime + job.waitSeconds, job.waitSeconds});
        std::push_heap(pending.begin(), pending.end(), std::greater<Pending>{});
    }
    return program;
}

/** Per-kind nanoseconds of one timed pass. */
struct CallTimes
{
    int64_t observe = 0;
    int64_t refit = 0;
};

/** Run @p program on @p predictor; with @p times, time every call.
 *  @return jobs whose wait met the bound (infinite bounds count). */
size_t
runProgram(const CallProgram &program, core::Predictor &predictor,
           std::vector<double> &ratios, CallTimes *times)
{
    size_t correct = 0;
    for (const CallProgram::Call &call : program.calls) {
        const int64_t t0 = times ? nowNs() : 0;
        switch (call.kind) {
        case CallProgram::Observe:
            predictor.observeBatch(&program.values[call.offset], call.count);
            if (times)
                times->observe += nowNs() - t0;
            break;
        case CallProgram::Refit:
            predictor.refit();
            if (times)
                times->refit += nowNs() - t0;
            break;
        case CallProgram::Score: {
            if (ratios.size() < call.count)
                ratios.resize(call.count);
            correct += predictor
                           .scoreBatch(&program.values[call.offset],
                                       call.count, ratios.data())
                           .correct;
            break;
        }
        case CallProgram::Finalize:
            predictor.finalizeTraining();
            break;
        }
    }
    return correct;
}

/** A predictor that does nothing and always bounds at a fixed finite
 *  value: replaying with it times a replay engine's own work. */
class NullPredictor : public core::Predictor
{
  public:
    std::string name() const override { return "null"; }
    void observe(double) override {}
    void observeBatch(const double *, size_t) override {}
    void refit() override {}
    core::QuantileEstimate
    upperBound() const override
    {
        return core::QuantileEstimate::of(1e12);
    }
    size_t historySize() const override { return 0; }
};

// --- the probe --------------------------------------------------------

constexpr double kEpoch = 300.0;
constexpr double kTrain = 0.10;
/** Jobs (from the trace's start) whose events feed the serve layers. */
constexpr size_t kServeJobs = 120'000;
/** Events ingested durably (each one fsyncs). */
constexpr size_t kDurableEvents = 3'000;
/** Rounds of the in-memory replay's parts; their medians are reported. */
constexpr int kRounds = 3;
/** The stream replay is repeated kRounds times only when its first run
 *  is shorter than this (on serve-query's 4,006 queues it takes ~30 s). */
constexpr double kRepeatStreamBelowS = 5.0;
/** Rare-event tables built per round to time the stream engine's
 *  per-queue table (scaled to the trace's queue count). */
constexpr size_t kTableSample = 8;

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

class Probe
{
  public:
    Probe(std::string workload, std::string inputs, std::string out)
        : workload_(std::move(workload)), inputs_(std::move(inputs)),
          out_(std::move(out))
    {
    }

    int run();

  private:
    bool traceLayer(const std::string &swf);
    void coreLayer();
    void replayLayer();
    void serveLayers();

    std::string workload_, inputs_, out_;
    Spans spans_;
    Report report_;
    trace::Trace trace_;
    std::vector<std::string> queueNames_;
    std::vector<trace::Trace> queues_;
    std::vector<CallProgram> programs_;
};

bool
Probe::traceLayer(const std::string &swf)
{
    trace::IngestReport ingest;
    {
        Spans::Scope span(spans_, "trace.parse");
        auto loaded = trace::loadTrace(swf, {}, &ingest);
        if (!loaded.ok()) {
            report_.failures.push_back(loaded.error().str());
            return false;
        }
        trace_ = std::move(loaded).value();
    }
    const double jobs = static_cast<double>(trace_.size());
    report_.add("trace.parse_ns_per_job",
                spans_.seconds("trace.parse") * 1e9 / jobs, "ns");

    const std::string qtc = out_ + "/trace.swf.qtc";
    {
        Spans::Scope span(spans_, "trace.qtc_write");
        auto stamp = FileStamp::of(swf);
        auto written = trace::writeTraceCache(
            qtc, trace_, ingest,
            trace::swfCacheOptions(trace::SwfParseOptions{}),
            stamp.ok() ? stamp.value() : FileStamp{});
        if (!written.ok())
            report_.failures.push_back(written.error().str());
    }
    report_.add("trace.qtc_write_ns_per_job",
                spans_.seconds("trace.qtc_write") * 1e9 / jobs, "ns");

    {
        Spans::Scope span(spans_, "trace.qtc_read");
        auto reader = trace::StreamingTraceReader::open(qtc);
        double sum = 0.0;
        size_t rows = 0;
        trace::ColumnBatch batch;
        while (reader.ok()) {
            auto more = reader.value().next(&batch);
            if (!more.ok() || !more.value())
                break;
            for (size_t i = 0; i < batch.size; ++i)
                sum += batch.wait[i];
            rows += batch.size;
        }
        if (rows != trace_.size() || !(sum >= 0.0))
            report_.failures.push_back("qtc read returned " +
                                       std::to_string(rows) + " rows");
    }
    report_.add("trace.qtc_read_ns_per_job",
                spans_.seconds("trace.qtc_read") * 1e9 / jobs, "ns");

    {
        Spans::Scope span(spans_, "trace.filter");
        queueNames_ = trace_.queueNames();
        for (const auto &name : queueNames_)
            queues_.push_back(trace_.filterByQueue(name));
    }
    return true;
}

void
Probe::coreLayer()
{
    for (const auto &queue : queues_)
        programs_.push_back(buildProgram(queue, kEpoch, kTrain));
    const core::RareEventTable table(0.95, 0.05);
    core::PredictorOptions options;
    options.rareEventTable = &table;
    std::vector<double> ratios;

    for (const std::string method : {"bmbp", "lognormal-trim"}) {
        const std::string layer =
            method == "bmbp" ? "core.bmbp" : "core.lognormal_trim";
        CallTimes times;
        size_t observations = 0, refits = 0, trims = 0;
        {
            Spans::Scope span(spans_, layer + ".timed_calls");
            for (const auto &program : programs_) {
                auto predictor = core::makePredictor(method, options);
                runProgram(program, *predictor, ratios, &times);
                observations += program.observations;
                refits += program.refits;
                trims += sim::predictorTrimCount(*predictor);
            }
        }
        report_.add(layer + ".observe_ns",
                    static_cast<double>(times.observe) /
                        static_cast<double>(observations),
                    "ns");
        report_.add(layer + ".refit_us",
                    static_cast<double>(times.refit) / 1e3 /
                        static_cast<double>(refits),
                    "us");
        if (method == "bmbp") {
            report_.add("core.bmbp.refits", static_cast<double>(refits),
                        "count");
            report_.add("core.bmbp.trims", static_cast<double>(trims),
                        "count");
        }
    }
}

void
Probe::replayLayer()
{
    core::PredictorOptions options;
    std::map<std::string, sim::ReplayResult> streamed;
    for (int round = 0; round < kRounds; ++round) {
        if (round > 0 &&
            spans_.seconds("replay.stream") >= kRepeatStreamBelowS)
            break;
        Spans::Scope span(spans_, "replay.stream");
        auto reader =
            trace::StreamingTraceReader::open(out_ + "/trace.swf.qtc");
        if (!reader.ok()) {
            report_.failures.push_back(reader.error().str());
            return;
        }
        auto result = sim::replayStream(reader.value(), "bmbp", options);
        if (!result.ok()) {
            report_.failures.push_back(result.error().str());
            return;
        }
        if (round == 0)
            for (const auto &queue : result.value().queues)
                streamed[queue.queue] = queue.result;
    }

    // The in-memory replay and the parts it is split into, timed in
    // adjacent rounds so that a slow spell of the host falls on a whole
    // round rather than on one part.
    const core::RareEventTable table(options.quantile, 0.05);
    const size_t sampled = std::max<size_t>(
        1, std::min(kTableSample, queues_.size()));
    std::map<std::string, sim::EvaluationCell> cells;
    std::vector<double> ratios;
    size_t alone_correct = 0, alone_scored = 0;
    for (int round = 0; round < kRounds; ++round) {
        // The predictor alone: each queue's §5.1 call sequence, as the
        // replay makes it, on predictors sharing one table as the
        // in-memory engine's do.
        core::PredictorOptions shared = options;
        shared.rareEventTable = &table;
        std::vector<std::unique_ptr<core::Predictor>> fresh;
        for (size_t q = 0; q < programs_.size(); ++q)
            fresh.push_back(core::makePredictor("bmbp", shared));
        {
            Spans::Scope span(spans_, "replay.predictor_alone");
            for (size_t q = 0; q < programs_.size(); ++q) {
                const size_t correct =
                    runProgram(programs_[q], *fresh[q], ratios, nullptr);
                if (round == 0) {
                    alone_correct += correct;
                    alone_scored += programs_[q].scored;
                }
            }
        }
        {
            Spans::Scope span(spans_, "replay.memory");
            for (size_t q = 0; q < queues_.size(); ++q)
                cells[queueNames_[q]] = sim::evaluateTrace(
                    queues_[q], "bmbp", shared, {});
        }
        // The in-memory engine alone: the same replays with a predictor
        // that does nothing.
        {
            Spans::Scope span(spans_, "replay.engine_alone");
            const sim::ReplaySimulator simulator;
            for (const auto &queue : queues_) {
                NullPredictor null;
                if (!simulator.run(queue, null).ok())
                    report_.failures.push_back("engine-alone replay failed");
            }
        }
        // What the stream engine does and the in-memory one does not:
        // its predictors, made without a shared table, each build one.
        {
            Spans::Scope span(spans_, "replay.stream_tables");
            for (size_t q = 0; q < sampled; ++q)
                const core::RareEventTable own(options.quantile, 0.05);
        }
    }

    const std::vector<double> predictors = spans_.each("replay.predictor_alone");
    const std::vector<double> memories = spans_.each("replay.memory");
    std::vector<double> memory_selves;
    for (size_t r = 0; r < memories.size(); ++r)
        memory_selves.push_back(memories[r] - predictors[r]);
    const double predictor = median(predictors);
    const double reader = spans_.seconds("trace.qtc_read");
    const double engine = median(spans_.each("replay.engine_alone"));
    const double tables = median(spans_.each("replay.stream_tables")) *
                          static_cast<double>(queues_.size()) /
                          static_cast<double>(sampled);
    const double stream = median(spans_.each("replay.stream"));
    const double memory = median(memories);
    const double stream_self = stream - reader - predictor;
    const double memory_self = median(memory_selves);
    report_.add("replay.stream.self_s", stream_self, "s");
    report_.add("replay.memory.self_s", memory_self, "s");
    // A self time is a remainder of parts each timed on its own, so on
    // a host whose speed swings it can come out below 0; that is a
    // reading of the clock, not an output of the program.
    if (stream_self < 0.0 || memory_self < 0.0)
        std::fprintf(stderr,
                     "probe: self time below 0 (stream %.3f s, in-memory "
                     "%.3f s): parts timed alone outran the replay\n",
                     stream_self, memory_self);
    // What each untraced qdel_predict invocation does, as parts each
    // timed on its own. The streaming engine takes a method name, not a
    // predictor, so its own work is estimated by the in-memory
    // engine's (both run the same §5.1 schedule) plus its per-queue
    // tables.
    const double front = spans_.seconds("trace.parse") +
                         spans_.seconds("trace.filter");
    report_.sums["stream"] = reader + predictor + engine + tables;
    report_.sums["memory"] = front + predictor + engine;
    // The same replays as traced here, for the tracing overhead.
    report_.sums["stream_traced"] = stream;
    report_.sums["memory_traced"] = front + memory;

    // The engines agree with each other and with the predictors run
    // alone on the same schedule.
    size_t correct = 0, evaluated = 0;
    for (const auto &[name, cell] : cells) {
        const sim::ReplayResult &s = streamed[name];
        if (s.evaluatedJobs != cell.evaluated ||
            s.correctFraction != cell.correctFraction)
            report_.failures.push_back("engines disagree on " + name);
        correct += s.correct;
        evaluated += s.evaluatedJobs;
    }
    if (alone_correct != correct || alone_scored != evaluated)
        report_.failures.push_back(
            "predictor-alone schedule scored " +
            std::to_string(alone_correct) + "/" +
            std::to_string(alone_scored) + ", replay " +
            std::to_string(correct) + "/" + std::to_string(evaluated));
}

void
Probe::serveLayers()
{
    // The daemon's counters are always on; so are they here.
    obs::setEnabled(true);
    const size_t n = std::min(kServeJobs, trace_.size());
    const std::vector<trace::JobRecord> jobs(trace_.begin(),
                                             trace_.begin() + n);
    const auto events = serve::eventsFromJobs(jobs, trace_.machine());

    // Queries: the workload's own, or the bound query of each Submit.
    std::string frames = readFile(inputs_ + "/queries.frames");
    if (frames.empty()) {
        for (const auto &event : events) {
            if (event.kind != serve::EventKind::Submit)
                continue;
            serve::BoundQuery query;
            query.machine = event.machine;
            query.queue = event.queue;
            query.procs = event.procs;
            frames += serve::frameRequest(serve::Opcode::Query,
                                          serve::encodeQuery(query));
        }
    }
    std::vector<std::string> query_bodies;
    for (std::string_view rest = frames; !rest.empty();) {
        std::string_view payload;
        size_t consumed = 0;
        auto got = serve::unframe(rest, &payload, &consumed);
        if (!got.ok() || !got.value())
            break;
        query_bodies.emplace_back(payload.substr(1));
        rest.remove_prefix(consumed);
    }
    std::vector<std::string> event_bodies;
    for (const auto &event : events)
        event_bodies.push_back(serve::encodeEvent(event));

    // Repeat the cheap loops to at least this many calls.
    constexpr size_t kMinCalls = 2'000'000;
    const size_t query_reps = kMinCalls / query_bodies.size() + 1;

    // wire
    std::vector<serve::BoundQuery> queries(query_bodies.size());
    {
        Spans::Scope span(spans_, "serve.wire.decode_query");
        size_t bad = 0;
        for (size_t r = 0; r < query_reps; ++r)
            for (size_t i = 0; i < query_bodies.size(); ++i)
                bad += !serve::decodeQueryInto(query_bodies[i], &queries[i]).ok();
        if (bad > 0)
            report_.failures.push_back("query decode failed");
    }
    report_.add("serve.wire.decode_query_ns",
                spans_.seconds("serve.wire.decode_query") * 1e9 /
                    static_cast<double>(query_reps * query_bodies.size()),
                "ns");
    {
        Spans::Scope span(spans_, "serve.wire.decode_event");
        size_t bad = 0;
        for (const auto &body : event_bodies)
            bad += !serve::decodeEvent(body).ok();
        if (bad > 0)
            report_.failures.push_back("event decode failed");
    }
    report_.add("serve.wire.decode_event_ns",
                spans_.seconds("serve.wire.decode_event") * 1e9 /
                    static_cast<double>(event_bodies.size()),
                "ns");

    // registry
    serve::BoundRegistry::Options options;
    serve::BoundRegistry registry(options);
    {
        Spans::Scope span(spans_, "serve.registry.apply");
        size_t rejected = 0;
        for (const auto &event : events)
            rejected += !registry.apply(event).applied;
        if (rejected > 0)
            report_.failures.push_back("registry rejected events");
    }
    report_.add("serve.registry.apply_us",
                spans_.seconds("serve.registry.apply") * 1e6 /
                    static_cast<double>(events.size()),
                "us");

    std::vector<serve::JobEvent> first_of_key;
    {
        std::set<std::pair<std::string, int>> keys;
        for (const auto &event : events)
            if (keys.insert({event.queue, serve::procBucketFor(event.procs)})
                    .second)
                first_of_key.push_back(event);
    }
    {
        serve::BoundRegistry fresh(options);
        Spans::Scope span(spans_, "serve.registry.new_key");
        for (const auto &event : first_of_key)
            fresh.apply(event);
    }
    report_.add("serve.registry.new_key_us",
                spans_.seconds("serve.registry.new_key") * 1e6 /
                    static_cast<double>(first_of_key.size()),
                "us");

    std::vector<serve::BoundAnswer> answers(queries.size());
    {
        serve::BoundRegistry::QueryScratch scratch;
        Spans::Scope span(spans_, "serve.registry.query_batch");
        for (size_t r = 0; r < query_reps; ++r)
            for (size_t i = 0; i < queries.size(); i += 64)
                registry.queryBatch(&queries[i],
                                    std::min<size_t>(64, queries.size() - i),
                                    &answers[i], scratch);
    }
    report_.add("serve.registry.query_batch_ns",
                spans_.seconds("serve.registry.query_batch") * 1e9 /
                    static_cast<double>(query_reps * queries.size()),
                "ns");
    {
        std::string out;
        Spans::Scope span(spans_, "serve.wire.encode_answer");
        for (size_t r = 0; r < query_reps; ++r)
            for (size_t i = 0; i < answers.size(); ++i) {
                if (i % 64 == 0)
                    out.clear();
                serve::appendAnswerFrame(out, answers[i]);
            }
    }
    report_.add("serve.wire.encode_answer_ns",
                spans_.seconds("serve.wire.encode_answer") * 1e9 /
                    static_cast<double>(query_reps * answers.size()),
                "ns");

    // persist: the WAL alone, one fsync per record as --sync-every 1.
    const size_t durable = std::min(kDurableEvents, events.size());
    std::filesystem::create_directories(out_ + "/wal");
    {
        auto wal = persist::WalWriter::create(out_ + "/wal/probe.wal", 0);
        if (!wal.ok()) {
            report_.failures.push_back(wal.error().str());
            return;
        }
        int64_t append = 0, sync = 0;
        size_t bad = 0;
        {
            Spans::Scope span(spans_, "persist.wal");
            for (size_t i = 0; i < durable; ++i) {
                persist::WalRecord record;
                record.type = persist::WalRecordType::Blob;
                record.blob = event_bodies[i];
                const int64_t t0 = nowNs();
                const bool ok = wal.value().append(record).ok();
                const int64_t t1 = nowNs();
                bad += !ok || !wal.value().sync().ok();
                append += t1 - t0;
                sync += nowNs() - t1;
            }
        }
        if (bad > 0)
            report_.failures.push_back("WAL write failed");
        report_.add("persist.wal.append_us",
                    static_cast<double>(append) / 1e3 / durable, "us");
        report_.add("persist.wal.sync_us",
                    static_cast<double>(sync) / 1e3 / durable, "us");
        report_.add("persist.wal_bytes_per_event",
                    static_cast<double>(wal.value().bytesWritten()) / durable,
                    "bytes");
        (void)wal.value().close();
    }

    // service: durable ingest as qdel_serve --state-dir runs it.
    auto counters = [] {
        std::map<std::string, double> values;
        const auto snap = obs::registry().snapshot();
        for (const auto &h : snap.histograms) {
            values[h.name + "_count"] = static_cast<double>(h.count);
            values[h.name + "_sum"] = h.sum;
        }
        return values;
    };
    serve::ServiceConfig config;
    config.stateDir = out_ + "/state";
    config.checkpointEveryEvents = 1000;
    auto before = counters();
    {
        auto service = serve::BoundService::open(config);
        if (!service.ok()) {
            report_.failures.push_back(service.error().str());
            return;
        }
        size_t bad = 0;
        {
            Spans::Scope span(spans_, "serve.service.ingest");
            for (size_t i = 0; i < durable; ++i) {
                auto outcome = service.value()->ingest(events[i]);
                bad += !outcome.ok() || !outcome.value().applied;
            }
        }
        if (bad > 0)
            report_.failures.push_back("durable ingest failed");
        Spans::Scope span(spans_, "persist.checkpoint_all");
        if (!service.value()->checkpointAll().ok())
            report_.failures.push_back("checkpoint failed");
    }
    auto after = counters();
    auto delta = [&](const std::string &name) {
        return after[name] - before[name];
    };
    report_.add("serve.service.ingest_us",
                spans_.seconds("serve.service.ingest") * 1e6 / durable, "us");
    report_.add("persist.fsyncs_per_event",
                delta("qdel_persist_fsync_seconds_count") / durable, "count");
    const double checkpoints = delta("qdel_persist_checkpoint_seconds_count");
    report_.add("persist.checkpoint_ms",
                checkpoints > 0
                    ? delta("qdel_persist_checkpoint_seconds_sum") * 1e3 /
                          checkpoints
                    : 0.0,
                "ms");
}

int
Probe::run()
{
    static const std::map<std::string, std::string> traces = {
        {"offline-replay", "trace.swf"},
        {"serve-query", "warm.swf"},
        {"serve-ingest-durable", "ingest.swf"}};
    auto it = traces.find(workload_);
    if (it == traces.end()) {
        std::fprintf(stderr, "probe: unknown workload '%s'\n",
                     workload_.c_str());
        return 2;
    }
    {
        Spans::Scope root(spans_, "probe");
        if (traceLayer(inputs_ + "/" + it->second)) {
            coreLayer();
            replayLayer();
            serveLayers();
        }
    }
    if (!spans_.write(out_ + "/spans.jsonl"))
        report_.failures.push_back("cannot write spans.jsonl");
    report_.print();
    return 0;
}

} // namespace

int
runProbe(const Args &args)
{
    Probe probe(args.str("workload", ""), args.str("inputs", "."),
                args.str("out", "."));
    return probe.run();
}

} // namespace perfbench
