/**
 * @file
 * Implementation of the multi-queue replay engine.
 */

#include "sim/replay/stream_replay.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/rare_event.hh"
#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/replay_core.hh"
#include "util/resource_usage.hh"
#include "util/thread_pool.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace qdel {
namespace sim {

namespace {

/** RSS sampling cadence, in batches (plus once per shard change). */
constexpr size_t kRssSampleEveryBatches = 32;

/** Distinguishes spill files of concurrent runs in one process. */
std::atomic<uint64_t> spillSerial{0};

std::string
spillFilePath(const std::string &dir, uint64_t serial, size_t queue_id)
{
    long long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
    pid = static_cast<long long>(::getpid());
#endif
    return dir + "/qdel_stream_ratios_" + std::to_string(pid) + "_" +
           std::to_string(serial) + "_" + std::to_string(queue_id) +
           ".spill";
}

/**
 * The multi-queue engine: one predictor and one ReplayCore per queue,
 * all sharing one rare-event table. feed() takes rows of many queues in
 * global submission order, scatters them into per-queue runs (order
 * preserving within each queue) and evaluates the touched queues
 * concurrently, joining before it returns.
 */
class QueueFanout
{
  public:
    QueueFanout(const std::string &method,
                const core::PredictorOptions &options,
                const StreamReplayConfig &config)
        : method_(method),
          options_(options),
          config_(config),
          serial_(spillSerial.fetch_add(1, std::memory_order_relaxed)),
          pool_(ThreadPool::resolveThreadCount(config.threads))
    {
        if (options_.rareEventTable == nullptr) {
            table_ = std::make_unique<core::RareEventTable>(
                options_.quantile, 0.05);
            options_.rareEventTable = table_.get();
        }
        std::error_code ec;
        spillDir_ = !config.spillDir.empty() ? config.spillDir
                    : std::filesystem::temp_directory_path(ec).string();
        if (ec)
            spillDir_ = ".";
    }

    /** Add the next queue, of @p total jobs in all. */
    Expected<Unit>
    addQueue(const std::string &name, size_t total)
    {
        auto predictor = core::tryMakePredictor(method_, options_);
        if (!predictor.ok())
            return predictor.error();
        auto lane = std::make_unique<Lane>();
        lane->name = name;
        lane->predictor = std::move(predictor).value();
        lane->core = std::make_unique<ReplayCore>(
            *lane->predictor, total,
            ReplayConfig{config_.epochSeconds, config_.trainFraction},
            ReplayProbe{}, spillFilePath(spillDir_, serial_, lanes_.size()),
            config_.spillThresholdDoubles);
        lanes_.push_back(std::move(lane));
        return Unit{};
    }

    /** Feed @p n rows; @p queue[i] indexes the queues added. */
    Expected<Unit>
    feed(const double *submit, const double *wait, const uint32_t *queue,
         size_t n)
    {
        // Single queue: evaluate straight off the caller's columns.
        if (lanes_.size() == 1)
            return lanes_[0]->core->feed(submit, wait, n);

        for (size_t row = 0; row < n; ++row) {
            lanes_[queue[row]]->submit.push_back(submit[row]);
            lanes_[queue[row]]->wait.push_back(wait[row]);
        }
        std::vector<std::future<Expected<Unit>>> joins;
        for (auto &lane : lanes_) {
            if (lane->submit.empty())
                continue;
            joins.push_back(pool_.submit([&lane] {
                auto ok = lane->core->feed(lane->submit.data(),
                                           lane->wait.data(),
                                           lane->submit.size());
                lane->submit.clear();
                lane->wait.clear();
                return ok;
            }));
        }
        std::optional<ParseError> error;
        for (auto &join : joins) {
            if (auto ok = join.get(); !ok.ok() && !error)
                error = ok.error();
        }
        if (error)
            return *error;
        return Unit{};
    }

    /** @p done of @p total rows fed, with the scores so far. */
    ReplayProgress
    progress(size_t done, size_t total) const
    {
        ReplayProgress out{done, total, 0, 0};
        for (const auto &lane : lanes_) {
            out.evaluated += lane->core->state().evaluated;
            out.correct += lane->core->state().correct;
        }
        return out;
    }

    /** Close every queue out into @p out, in the order they were added. */
    Expected<Unit>
    finish(std::vector<QueueStreamResult> *out)
    {
        for (auto &lane : lanes_) {
            auto result = lane->core->finish();
            if (!result.ok())
                return result.error();
            out->push_back({lane->name, std::move(result).value(),
                            predictorTrimCount(*lane->predictor)});
        }
        return Unit{};
    }

  private:
    struct Lane
    {
        std::string name;
        std::unique_ptr<core::Predictor> predictor;
        std::unique_ptr<ReplayCore> core;
        std::vector<double> submit;  //!< This batch's rows of the queue.
        std::vector<double> wait;
    };

    const std::string &method_;
    core::PredictorOptions options_;
    const StreamReplayConfig &config_;
    const uint64_t serial_;
    std::unique_ptr<core::RareEventTable> table_;
    std::string spillDir_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    ThreadPool pool_;
};

} // namespace

Expected<Unit>
StreamReplayConfig::validate() const
{
    if (auto ok = ReplayConfig{epochSeconds, trainFraction}.validate();
        !ok.ok())
        return ok.error();
    if (batchSize == 0) {
        return ParseError{"", 0, "batchSize",
                          "must be at least 1 row per batch"};
    }
    return Unit{};
}

Expected<StreamReplayResult>
replayStream(trace::StreamingTraceReader &reader, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config)
{
    if (auto valid = config.validate(); !valid.ok())
        return valid.error();

    QueueFanout fanout(method, options, config);
    for (size_t q = 0; q < reader.queueNames().size(); ++q) {
        if (auto ok = fanout.addQueue(reader.queueNames()[q],
                                      reader.queueJobCounts()[q]);
            !ok.ok())
            return ok.error();
    }

    StreamReplayResult result;
    result.site = reader.site();
    result.machine = reader.machine();
    result.shards = reader.shardCount();

    size_t shards_completed = 0;
    size_t last_shard = 0;
    auto sample_memory = [&]() {
        const size_t resident = util::currentResidentBytes();
        result.peakResidentBytes =
            std::max(result.peakResidentBytes, resident);
        QDEL_OBS({
            obs::replayMetrics().residentBytes.set(
                static_cast<double>(resident));
            obs::replayMetrics().streamShardLag.set(static_cast<double>(
                std::min(reader.currentShard() + 1, reader.shardCount()) -
                shards_completed));
        });
    };

    trace::ColumnBatch batch;
    while (true) {
        auto more = reader.next(&batch);
        if (!more.ok())
            return more.error();
        if (!more.value())
            break;

        result.totalJobs += batch.size;
        ++result.batches;
        QDEL_OBS(obs::replayMetrics().batches.inc());

        if (auto ok = fanout.feed(batch.submit, batch.wait, batch.queueId,
                                  batch.size);
            !ok.ok())
            return ok.error();

        const size_t shard = reader.currentShard();
        if (shard != last_shard) {
            // All rows of every shard before `shard` are evaluated
            // (the join above is a barrier).
            shards_completed = shard;
            last_shard = shard;
            sample_memory();
        } else if (result.batches % kRssSampleEveryBatches == 0) {
            sample_memory();
        }
    }

    shards_completed = reader.shardCount();
    sample_memory();
    if (auto ok = fanout.finish(&result.queues); !ok.ok())
        return ok.error();
    return result;
}

TraceCells::TraceCells(const trace::Trace &t, std::vector<std::string> queues,
                       bool by_procs)
    : trace_(t),
      queues_(std::move(queues)),
      ranges_(by_procs ? static_cast<size_t>(trace::paperProcRangeCount())
                       : 1),
      cell_(t.size(), kNone),
      jobs_(queues_.size() * ranges_, 0)
{
    std::unordered_map<std::string, uint32_t> index;
    for (size_t q = 0; q < queues_.size(); ++q)
        index.emplace(queues_[q], static_cast<uint32_t>(q));
    if (const auto it = index.find(""); it != index.end())
        all_ = it->second;
    for (size_t i = 0; i < t.size(); ++i) {
        if (const auto it = index.find(t[i].queue); it != index.end())
            cell_[i] = static_cast<uint32_t>(cellOf(it->second, t[i].procs));
    }
    forEach([this](size_t cell, const trace::JobRecord &) { ++jobs_[cell]; });
}

size_t
TraceCells::cellOf(size_t q, int procs) const
{
    if (ranges_ == 1)
        return q;
    const trace::ProcRange *ranges = trace::paperProcRanges();
    for (size_t r = 0; r < ranges_; ++r) {
        if (ranges[r].contains(procs))
            return q * ranges_ + r;
    }
    return kNone;
}

Expected<StreamReplayResult>
replayTrace(const TraceCells &cells, const std::string &method,
            const core::PredictorOptions &options,
            const StreamReplayConfig &config, size_t progress_every,
            const std::function<void(const ReplayProgress &)> &on_progress)
{
    if (auto valid = config.validate(); !valid.ok())
        return valid.error();
    if (!cells.trace().isSorted()) {
        return ParseError{"", 0, "trace",
                          "replayTrace: trace must be sorted by submission "
                          "time"};
    }
    QueueFanout fanout(method, options, config);
    size_t total = 0;
    for (size_t c = 0; c < cells.size(); ++c) {
        total += cells.jobs(c);
        if (auto ok = fanout.addQueue(cells.queue(c), cells.jobs(c));
            !ok.ok())
            return ok.error();
    }

    StreamReplayResult result;
    result.site = cells.trace().site();
    result.machine = cells.trace().machine();
    const bool progress = progress_every > 0 && on_progress != nullptr;
    std::vector<double> submit, wait;
    std::vector<uint32_t> cell_ids;
    std::optional<ParseError> error;
    // Batches also end on every progress boundary.
    auto flush = [&]() {
        if (submit.empty() || error)
            return;
        if (auto ok = fanout.feed(submit.data(), wait.data(),
                                  cell_ids.data(), submit.size());
            !ok.ok())
            error = ok.error();
        result.totalJobs += submit.size();
        ++result.batches;
        submit.clear();
        wait.clear();
        cell_ids.clear();
        if (progress && result.totalJobs % progress_every == 0)
            on_progress(fanout.progress(result.totalJobs, total));
    };
    cells.forEach([&](size_t cell, const trace::JobRecord &job) {
        submit.push_back(job.submitTime);
        wait.push_back(job.waitSeconds);
        cell_ids.push_back(static_cast<uint32_t>(cell));
        if (submit.size() == config.batchSize ||
            (progress &&
             (result.totalJobs + submit.size()) % progress_every == 0))
            flush();
    });
    flush();
    if (error)
        return *error;
    if (progress)
        on_progress(fanout.progress(result.totalJobs, total));
    result.peakResidentBytes = util::currentResidentBytes();
    if (auto ok = fanout.finish(&result.queues); !ok.ok())
        return ok.error();
    return result;
}

} // namespace sim
} // namespace qdel
