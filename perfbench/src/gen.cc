/**
 * @file
 * Seeded input generator. Every input a benchmark run feeds the
 * program is made here from the seed alone, so a change to the
 * program (its synthesizer included) cannot change what is measured.
 *
 * The queues are the largest rows of the paper's Table 1 (job count,
 * mean and median delay, trace span), copied below with the per-queue
 * knobs of the repository's Table 1 catalog (src/workload/
 * site_catalog.cc: lag-1 autocorrelation, regime count and spread,
 * processor mix and per-range delay factors). Each queue's waits are
 * log-normal with (mu, sigma) fitted from the published median and
 * mean, driven by an AR(1) process in log space (lag-1
 * autocorrelation), shifted at regime changes, and scaled by the
 * processor range's delay factor. Arrivals are Poisson at the
 * published rate (jobs over the trace span). README "Inputs" says
 * where every figure comes from and which are assumptions.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "frames.hh"
#include "perfbench.hh"
#include "rng.hh"

namespace perfbench {
namespace {

constexpr const char *kMachine = "perfbench";
constexpr double kMonth = 30.44 * 86400.0;

/** One Table 1 row and its catalog knobs. */
struct Table1Row
{
    const char *name;  //!< site-queue.
    // Paper Table 1.
    double jobs;
    double meanDelay;    //!< Seconds.
    double medianDelay;  //!< Seconds.
    double months;       //!< Trace span.
    // Repository catalog (site_catalog.cc).
    double rho;
    double regimes;
    double regimeSpread;
    double procMix[4];
};

/** The eight largest queues of Table 1, largest first. */
const Table1Row kTable1[] = {
    {"tacc2-normal", 356487, 732, 10, 14, 0.35, 12, 0.10,
     {0.40, 0.30, 0.20, 0.10}},
    {"nersc-regular", 274546, 16253, 1578, 24, 0.35, 12, 0.10,
     {0.45, 0.35, 0.197, 0.003}},
    {"nersc-debug", 115105, 332, 42, 24, 0.35, 12, 0.10,
     {0.60, 0.39, 0.008, 0.002}},
    {"llnl-all", 63959, 8164, 242, 9, 0.35, 7, 0.10,
     {0.40, 0.35, 0.235, 0.015}},
    {"nersc-low", 56337, 34314, 6020, 24, 0.35, 7, 0.10,
     {0.40, 0.35, 0.24, 0.01}},
    {"lanl-scavenger", 50387, 1433, 7, 4, 0.45, 12, 0.40,
     {0.30, 0.30, 0.30, 0.10}},
    {"datastar-normal", 48543, 35886, 1795, 12, 0.45, 12, 0.40,
     {0.50, 0.30, 0.185, 0.015}},
    {"nersc-interactive", 36672, 121, 1, 24, 0.45, 9, 0.40,
     {0.97, 0.025, 0.004, 0.001}},
};
/** Jobs in all 39 rows of Table 1. */
constexpr double kTable1Jobs = 1235106;
/** Catalog delay factor of each processor range (every row). */
constexpr double kRangeDelay[4] = {0.8, 1.0, 1.25, 1.6};
/** The paper's processor ranges; 65+ is capped at 256 (assumption). */
constexpr int kRangeLo[4] = {1, 5, 17, 65};
constexpr int kRangeHi[4] = {4, 16, 64, 256};

struct QueueSpec
{
    std::string name;
    const Table1Row *row = nullptr;
    size_t jobs = 0;
    double gap = 0.0;  //!< Mean inter-arrival, seconds.
};

struct Job
{
    long long submit = 0;
    long long wait = 0;
    long long run = 0;
    int procs = 1;
    int range = 0;
    uint32_t queue = 0;  //!< Index into the spec list.
    uint32_t order = 0;  //!< Position within its queue.
};

size_t
scaled(const Table1Row &row, double scale)
{
    return static_cast<size_t>(std::llround(row.jobs * scale));
}

/** The first @p count rows of Table 1, each at @p scale of its jobs. */
std::vector<QueueSpec>
table1Queues(size_t count, double scale)
{
    std::vector<QueueSpec> specs;
    for (size_t q = 0; q < count; ++q)
        specs.push_back({kTable1[q].name, &kTable1[q],
                         scaled(kTable1[q], scale),
                         kTable1[q].months * kMonth / kTable1[q].jobs});
    return specs;
}

void
generateQueue(const QueueSpec &spec, uint32_t index, uint64_t seed,
              std::vector<Job> *out)
{
    const Table1Row &row = *spec.row;
    Rng rng(seed * 1000003u + index);
    const double gap = spec.gap;
    const double mu = std::log(row.medianDelay);
    const double sigma =
        std::sqrt(2.0 * std::log(row.meanDelay / row.medianDelay));
    const double phi = row.rho;
    const double innovation = std::sqrt(1.0 - phi * phi);
    double t = rng.uniform() * gap;
    double level = mu;
    double ar = rng.normal();
    for (size_t i = 0; i < spec.jobs; ++i) {
        if (rng.uniform() < row.regimes / row.jobs)
            level = mu + row.regimeSpread * rng.normal();
        t += rng.exponential(gap);
        ar = phi * ar + innovation * rng.normal();
        Job job;
        double u = rng.uniform();
        job.range = 0;
        while (job.range < 3 && u >= row.procMix[job.range])
            u -= row.procMix[job.range++];
        job.procs = kRangeLo[job.range] +
                    static_cast<int>(rng.below(kRangeHi[job.range] -
                                               kRangeLo[job.range] + 1));
        const double wait =
            std::exp(level + sigma * ar) * kRangeDelay[job.range];
        job.submit = static_cast<long long>(t);
        job.wait = static_cast<long long>(std::min(wait, 30.0 * 86400.0));
        job.run = static_cast<long long>(std::clamp(
            std::exp(std::log(1800.0) + 1.3 * rng.normal()), 1.0,
            7.0 * 86400.0));
        job.queue = index;
        job.order = static_cast<uint32_t>(i);
        out->push_back(job);
    }
}

/** Generate every queue and merge into submit order (ties broken by
 *  queue, then by position), the order the SWF file is written in. */
std::vector<Job>
generateJobs(const std::vector<QueueSpec> &specs, uint64_t seed)
{
    std::vector<Job> jobs;
    size_t total = 0;
    for (const auto &spec : specs)
        total += spec.jobs;
    jobs.reserve(total);
    for (uint32_t q = 0; q < specs.size(); ++q)
        generateQueue(specs[q], q, seed, &jobs);
    std::sort(jobs.begin(), jobs.end(), [](const Job &a, const Job &b) {
        if (a.submit != b.submit)
            return a.submit < b.submit;
        if (a.queue != b.queue)
            return a.queue < b.queue;
        return a.order < b.order;
    });
    return jobs;
}

bool
writeSwf(const std::string &path, const std::vector<QueueSpec> &specs,
         const std::vector<Job> &jobs)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "; Computer: %s\n; Installation: %s\n", kMachine,
                 kMachine);
    for (size_t q = 0; q < specs.size(); ++q)
        std::fprintf(out, "; Queue: %zu %s\n", q + 1, specs[q].name.c_str());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const Job &j = jobs[i];
        std::fprintf(out,
                     "%zu %lld %lld %lld %d -1 -1 %d -1 -1 1 -1 -1 -1 %u "
                     "-1 -1 -1\n",
                     i + 1, j.submit, j.wait, j.run, j.procs, j.procs,
                     j.queue + 1);
    }
    return std::fclose(out) == 0;
}

bool
writeFile(const std::string &path, const std::string &bytes)
{
    std::FILE *out = std::fopen(path.c_str(), "wb");
    if (out == nullptr)
        return false;
    const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), out) ==
                    bytes.size();
    return std::fclose(out) == 0 && ok;
}

/** meta.json: job count plus each queue's job count. */
bool
writeMeta(const std::string &path, const std::vector<QueueSpec> &specs,
          const std::string &extra)
{
    std::string json = "{\"machine\": \"" + std::string(kMachine) +
                       "\", \"queues\": {";
    size_t total = 0;
    for (size_t q = 0; q < specs.size(); ++q) {
        json += (q ? ", \"" : "\"") + specs[q].name +
                "\": " + std::to_string(specs[q].jobs);
        total += specs[q].jobs;
    }
    json += "}, \"jobs\": " + std::to_string(total) + extra + "}\n";
    return writeFile(path, json);
}

const char *const kRangeLabels[] = {"1-4", "5-16", "17-64", "65+"};

/** The bounds of the paper's Table 8 ("a day in the life"): .25 lower,
 *  .5, .75 and .95 upper. */
struct Bound
{
    double quantile;
    bool upper;
};
constexpr Bound kTable8Bounds[] = {
    {0.25, false}, {0.50, true}, {0.75, true}, {0.95, true}};

int
genOffline(uint64_t seed, const std::string &dir)
{
    const auto specs = table1Queues(8, kOfflineScale);
    const auto jobs = generateJobs(specs, seed);
    if (!writeSwf(dir + "/trace.swf", specs, jobs))
        return 1;
    return writeMeta(dir + "/meta.json", specs, "") ? 0 : 1;
}

int
genServeQuery(uint64_t seed, const std::string &dir)
{
    // Hot keys: Table 1's six largest queues x four processor ranges,
    // each with a full history. Cold tail: thousands of one-off queues
    // of two jobs, each with the delays of a Table 1 row in turn,
    // spread over the hot queues' span.
    auto specs = table1Queues(kHotQueues, kServeScale);
    const double span = specs[0].jobs * specs[0].gap;
    for (size_t c = 0; c < kColdQueues; ++c) {
        char name[32];
        std::snprintf(name, sizeof(name), "cold%05zu", c);
        specs.push_back({name, &kTable1[c % 8], 2, span / 2.0});
    }
    const auto jobs = generateJobs(specs, seed);
    if (!writeSwf(dir + "/warm.swf", specs, jobs))
        return 1;

    // Distinct queries: every hot key at each Table 8 bound, then each
    // cold queue's first job's range at one of them in turn.
    struct Distinct
    {
        std::string queue;
        int range;
        Bound bound;
    };
    std::vector<Distinct> distinct;
    for (size_t q = 0; q < kHotQueues; ++q)
        for (int r = 0; r < 4; ++r)
            for (const Bound &bound : kTable8Bounds)
                distinct.push_back({specs[q].name, r, bound});
    std::vector<int> cold_range(specs.size(), -1);
    std::vector<int> cold_procs(specs.size(), 0);
    std::vector<const Job *> hot_jobs;
    for (const Job &job : jobs) {
        if (job.queue < kHotQueues) {
            hot_jobs.push_back(&job);
        } else if (cold_range[job.queue] < 0) {
            cold_range[job.queue] = job.range;
            cold_procs[job.queue] = job.procs;
        }
    }
    for (size_t q = kHotQueues; q < specs.size(); ++q)
        distinct.push_back(
            {specs[q].name, cold_range[q], kTable8Bounds[q % 4]});

    std::string table;
    for (size_t i = 0; i < distinct.size(); ++i) {
        char line[128];
        std::snprintf(line, sizeof(line), "%zu\t%s\t%s\t%.2f\t%d\n", i,
                      distinct[i].queue.c_str(),
                      kRangeLabels[distinct[i].range],
                      distinct[i].bound.quantile,
                      distinct[i].bound.upper ? 1 : 0);
        table += line;
    }

    // The query ring: each query is a user asking about one job's key.
    // The hot share is the six queues' share of Table 1's jobs; a hot
    // query picks a hot job (so queues and ranges come in their job
    // proportions) and a Table 8 bound, a cold query a cold queue.
    double hot = 0.0;
    for (size_t q = 0; q < kHotQueues; ++q)
        hot += kTable1[q].jobs;
    const double hot_share = hot / kTable1Jobs;
    Rng rng(seed * 7919u + 17u);
    std::string frames;
    std::string index;
    for (size_t i = 0; i < kQueryRing; ++i) {
        size_t pick;
        int procs;
        if (rng.uniform() < hot_share) {
            const Job &job = *hot_jobs[rng.below(hot_jobs.size())];
            pick = job.queue * 16 + job.range * 4 + rng.below(4);
            procs = job.procs;
        } else {
            const size_t q = kHotQueues + rng.below(kColdQueues);
            pick = kHotQueues * 16 + (q - kHotQueues);
            procs = cold_procs[q];
        }
        const Distinct &d = distinct[pick];
        appendRequest(frames, kOpQuery,
                      queryBody(kMachine, d.queue, procs, d.bound.quantile,
                                d.bound.upper));
        putRaw<uint32_t>(index, static_cast<uint32_t>(pick));
    }
    const std::string extra =
        ", \"hot_keys\": " + std::to_string(kHotQueues * 4) +
        ", \"cold_keys\": " + std::to_string(kColdQueues) +
        ", \"distinct_queries\": " + std::to_string(distinct.size());
    return writeFile(dir + "/distinct.tsv", table) &&
                   writeFile(dir + "/queries.frames", frames) &&
                   writeFile(dir + "/queries.idx", index) &&
                   writeMeta(dir + "/meta.json", specs, extra)
               ? 0
               : 1;
}

int
genIngest(uint64_t seed, const std::string &dir)
{
    const auto specs = table1Queues(4, kIngestScale);
    const auto jobs = generateJobs(specs, seed);
    if (!writeSwf(dir + "/ingest.swf", specs, jobs))
        return 1;

    // The event stream qdel_serve --drive would ingest for this trace:
    // ordered by (time, job id, Submit before Start), job id = 1-based
    // position in the file. Each Submit is preceded by the bound query
    // its user would ask, at the paper's .95 upper bound.
    struct Ev
    {
        long long time;
        uint32_t job;
        uint8_t kind;
    };
    std::vector<Ev> events;
    events.reserve(jobs.size() * 2);
    for (uint32_t i = 0; i < jobs.size(); ++i) {
        events.push_back({jobs[i].submit, i, kKindSubmit});
        events.push_back({jobs[i].submit + jobs[i].wait, i, kKindStart});
    }
    std::sort(events.begin(), events.end(), [](const Ev &a, const Ev &b) {
        if (a.time != b.time)
            return a.time < b.time;
        if (a.job != b.job)
            return a.job < b.job;
        return a.kind < b.kind;
    });
    // stream.kinds: the opcode of each frame; stream.jobs: for each
    // event, its 1-based job id times two, plus one for a Start (what
    // run.py needs to write the trace of a stream's prefix).
    std::string frames;
    std::string kinds;
    std::string job_ids;
    for (const Ev &ev : events) {
        const Job &job = jobs[ev.job];
        const std::string &queue = specs[job.queue].name;
        if (ev.kind == kKindSubmit) {
            appendRequest(frames, kOpQuery,
                          queryBody(kMachine, queue, job.procs, 0.95, true));
            kinds.push_back(static_cast<char>(kOpQuery));
        }
        appendRequest(frames, kOpEvent,
                      eventBody(ev.kind, ev.job + 1,
                                static_cast<double>(ev.time), job.procs,
                                kMachine, queue));
        kinds.push_back(static_cast<char>(kOpEvent));
        putRaw<uint32_t>(job_ids, (ev.job + 1) * 2 + (ev.kind == kKindStart));
    }

    // The reader's open-loop queries: a random job's key at .95 upper.
    Rng rng(seed * 104729u + 3u);
    std::string oframes;
    for (size_t i = 0; i < kQueryRing; ++i) {
        const Job &job = jobs[rng.below(jobs.size())];
        appendRequest(oframes, kOpQuery,
                      queryBody(kMachine, specs[job.queue].name, job.procs,
                                0.95, true));
    }
    const std::string extra =
        ", \"events\": " + std::to_string(events.size()) +
        ", \"stream_frames\": " + std::to_string(kinds.size());
    return writeFile(dir + "/stream.frames", frames) &&
                   writeFile(dir + "/stream.kinds", kinds) &&
                   writeFile(dir + "/stream.jobs", job_ids) &&
                   writeFile(dir + "/oqueries.frames", oframes) &&
                   writeMeta(dir + "/meta.json", specs, extra)
               ? 0
               : 1;
}

} // namespace

int
runGen(const Args &args)
{
    const uint64_t seed = static_cast<uint64_t>(args.num("seed", 1));
    const std::string dir = args.str("out", ".");
    const std::string workload = args.str("workload", "");
    if (workload == "offline-replay")
        return genOffline(seed, dir);
    if (workload == "serve-query")
        return genServeQuery(seed, dir);
    if (workload == "serve-ingest-durable")
        return genIngest(seed, dir);
    std::fprintf(stderr, "gen: unknown workload '%s'\n", workload.c_str());
    return 2;
}

} // namespace perfbench
