/**
 * @file
 * The one replay event loop of paper Section 5.1. ReplaySimulator runs
 * one ReplayCore; the multi-queue engine (stream_replay.hh) runs one per
 * queue. A core replays one queue fed as (submit, wait) rows in
 * submission order: a wait enters the history only at release (submit
 * + wait); a job is scored against the bound of the last refit epoch
 * (every epochSeconds from the first submit; 0 = before every arrival);
 * the first trainFraction of the jobs is not scored; a job is correct
 * when bound >= wait, and an infinite bound counts as correct with no
 * ratio. At one instant a release runs before an epoch tick, which runs
 * before a snapshot tick, and all run before a job submitted then.
 *
 * A bound only moves at refit() (including a trim's refit inside
 * observe()), so a run of jobs with no event between their submits is
 * scored by one Predictor::scoreBatch() call, and the releases between
 * two ticks go to one observeBatch() in heap-pop order. Results do not
 * depend on how the rows are cut into feed() calls.
 */

#ifndef QDEL_SIM_REPLAY_REPLAY_CORE_HH
#define QDEL_SIM_REPLAY_REPLAY_CORE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "sim/replay/replay_simulator.hh"
#include "stats/spill_doubles.hh"
#include "util/expected.hh"

namespace qdel {
namespace persist {
class CheckpointManager;
enum class WalRecordType : uint8_t;
} // namespace persist

namespace sim {

/** A submitted job waiting to be released. */
struct PendingRelease
{
    double time;  //!< Release (start) time: submit + wait.
    double wait;  //!< The wait that becomes visible at release.

    bool
    operator>(const PendingRelease &other) const
    {
        return time > other.time;
    }
};

/**
 * What a ReplayCore carries between feed() calls, for checkpoints. The
 * pending releases are a min-heap on time in std::push_heap order, so a
 * restored heap pops in the identical order.
 */
struct ReplayCoreState
{
    size_t processed = 0;  //!< Jobs fed so far.
    bool trainingFinalized = false;
    double nextRefit = std::numeric_limits<double>::infinity();
    double nextSnapshot = std::numeric_limits<double>::infinity();
    std::vector<PendingRelease> pending;
    size_t evaluated = 0;
    size_t correct = 0;
    size_t infinite = 0;
    std::vector<SeriesPoint> series;
    std::vector<QuantileSnapshot> snapshots;
};

/** See file comment. */
class ReplayCore
{
  public:
    /**
     * Drive @p predictor (owned by the caller) over a queue of
     * @p total_jobs jobs, which fixes the training prefix up front.
     * @p config and @p probe are pre-validated; accuracy ratios beyond
     * @p spill_threshold doubles spill to @p spill_path.
     */
    ReplayCore(core::Predictor &predictor, size_t total_jobs,
               const ReplayConfig &config, ReplayProbe probe = {},
               std::string spill_path = {},
               size_t spill_threshold = std::numeric_limits<size_t>::max());

    /** Append every predictor mutation to @p wal before applying it;
     *  an append failure aborts the call that made it. */
    void logTo(persist::CheckpointManager &wal) { wal_ = &wal; }

    /** Start the epoch clock at @p first_submit (before any row). */
    void arm(double first_submit);

    /** Feed the queue's next @p n rows, in submission order. */
    Expected<Unit> feed(const double *submit, const double *wait, size_t n);

    /** Run every release, epoch and snapshot tick at or before
     *  @p horizon, in that order at equal times. */
    Expected<Unit> advanceTo(double horizon);

    ReplayCoreState &state() { return state_; }
    stats::SpillDoubles &ratios() { return ratios_; }

    /** The queue's result; moves the captured series out. */
    Expected<ReplayResult> finish();

  private:
    Expected<Unit> log(persist::WalRecordType type, double value);
    Expected<Unit> refit();
    void score(const double *wait, size_t count);

    core::Predictor &predictor_;
    const double epochSeconds_;
    const ReplayProbe probe_;
    const size_t training_;
    const size_t total_;
    persist::CheckpointManager *wal_ = nullptr;

    ReplayCoreState state_;
    stats::SpillDoubles ratios_;
    std::vector<double> ratioScratch_;
    std::vector<double> waitScratch_;
};

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_REPLAY_CORE_HH
