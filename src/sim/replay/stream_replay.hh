/**
 * @file
 * Multi-queue replay: evaluate a predictor method over every queue of
 * a trace at once, one shared core (ReplayCore, replay_core.hh) per
 * queue, fed from a sharded .qtc stream (replayStream, out of core) or
 * from an in-memory trace cut into cells by one counting pass
 * (replayTrace, with no per-queue copy of the trace).
 *
 * A queue runs on the core ReplaySimulator runs, so its ReplayResult is
 * *byte-identical* to ReplaySimulator::run() on the trace filtered to
 * that queue (no probe, no checkpointing) for any batch size, shard
 * size, and thread count. The engine adds each queue's job total (from
 * the .qtcs manifest or the counting pass), which fixes the training
 * prefix before the first row arrives.
 *
 * Every batch is scattered into per-queue runs and the touched queues
 * are evaluated concurrently, joining before the next batch (whose
 * arrival invalidates the mapped columns). Queue cores share only the
 * read-only rare-event table and results merge in queue order, so the
 * output is thread-count independent. Resident memory is one mapped
 * shard or batch + per-queue predictor history + spill-backed accuracy
 * ratios: for a stream nothing scales with trace length, which lets a
 * 10^9-job replay fit under 1 GiB.
 */

#ifndef QDEL_SIM_REPLAY_STREAM_REPLAY_HH
#define QDEL_SIM_REPLAY_STREAM_REPLAY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/predictor_factory.hh"
#include "sim/replay/replay_simulator.hh"
#include "trace/qtc_stream.hh"
#include "trace/trace.hh"
#include "util/expected.hh"

namespace qdel {
namespace sim {

/** Parameters of a multi-queue replay run. */
struct StreamReplayConfig
{
    /** Refit period in virtual seconds; 0 = refit per job. */
    double epochSeconds = 300.0;
    /** Unscored warm-up prefix, per queue. */
    double trainFraction = 0.10;
    /** Rows per batch. */
    size_t batchSize = size_t(1) << 16;
    /** Worker threads; <= 0 resolves via ThreadPool defaults. */
    long long threads = 1;
    /**
     * Directory for ratio spill files (empty = system temp dir) and
     * the in-RAM ratio cap per queue before spilling (doubles).
     */
    std::string spillDir;
    size_t spillThresholdDoubles = size_t(1) << 25;

    /** Same domain checks as ReplayConfig, plus batchSize >= 1. */
    Expected<Unit> validate() const;
};

/** Replay outcome of a single queue (or cell). */
struct QueueStreamResult
{
    std::string queue;     //!< Queue name (global table entry).
    ReplayResult result;   //!< Identical to ReplaySimulator's.
    size_t trims = 0;      //!< Change points the predictor detected.
};

/** Whole-run outcome: per-queue results plus run accounting. */
struct StreamReplayResult
{
    std::string site;
    std::string machine;
    size_t totalJobs = 0;   //!< Rows replayed (all queues).
    size_t batches = 0;     //!< Batches consumed.
    size_t shards = 0;      //!< Shards in the stream.
    size_t peakResidentBytes = 0;  //!< Max sampled RSS during the run.
    std::vector<QueueStreamResult> queues;  //!< Queue (or cell) order.
};

/**
 * Stream @p reader from its current position to its end and evaluate
 * @p method (one fresh predictor per queue) over every queue. All
 * predictors share options.rareEventTable, or one table built for the
 * run when it is not set.
 *
 * @return Per-queue results in global queue-id order, or the first
 *         validation/stream/spill error.
 */
Expected<StreamReplayResult>
replayStream(trace::StreamingTraceReader &reader, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config = {});

/**
 * An in-memory trace's jobs divided into replay cells by one counting
 * pass, without copying them. Cell q holds the jobs of queues[q] in
 * trace order, every job when that name is empty (the rule of
 * Trace::filterByQueue()); with by_procs each queue is cut further by
 * the paper's processor ranges, into cells q * paperProcRangeCount() + r.
 */
class TraceCells
{
  public:
    TraceCells(const trace::Trace &t, std::vector<std::string> queues,
               bool by_procs = false);

    const trace::Trace &trace() const { return trace_; }
    size_t size() const { return jobs_.size(); }
    const std::string &queue(size_t c) const { return queues_[c / ranges_]; }
    size_t jobs(size_t cell) const { return jobs_[cell]; }

    /** Call @p visit(cell, job) for every job of every cell, in trace
     *  order (a job in two cells is visited twice). */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (size_t i = 0; i < trace_.size(); ++i) {
            const trace::JobRecord &job = trace_[i];
            if (cell_[i] != kNone)
                visit(cell_[i], job);
            if (all_ != kNone && !job.queue.empty()) {
                if (const size_t c = cellOf(all_, job.procs); c != kNone)
                    visit(c, job);
            }
        }
    }

  private:
    static constexpr uint32_t kNone = UINT32_MAX;

    /** Cell of queue @p q for a job on @p procs; kNone when none. */
    size_t cellOf(size_t q, int procs) const;

    const trace::Trace &trace_;
    std::vector<std::string> queues_;
    size_t ranges_;
    uint32_t all_ = kNone;        //!< Index of the empty name.
    std::vector<uint32_t> cell_;  //!< Per job: the cell of its own queue.
    std::vector<size_t> jobs_;    //!< Per cell.
};

/**
 * The in-memory twin of replayStream(): evaluate @p method over every
 * cell of @p cells in batches of config.batchSize rows. Results come in
 * cell order, named by their queue; a trace not sorted by submission
 * time is an error. @p on_progress, when set, sees every
 * @p progress_every rows fed (all cells together) and the end.
 */
Expected<StreamReplayResult>
replayTrace(const TraceCells &cells, const std::string &method,
            const core::PredictorOptions &options,
            const StreamReplayConfig &config = {}, size_t progress_every = 0,
            const std::function<void(const ReplayProgress &)> &on_progress =
                nullptr);

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_STREAM_REPLAY_HH
