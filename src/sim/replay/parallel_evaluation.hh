/**
 * @file
 * Parallel evaluation engine for the replay hot path.
 *
 * The paper's result tables are grids of mutually independent
 * (trace, method, config) evaluations: each cell replays one trace
 * against one freshly built predictor and no state crosses cells
 * (predictors are constructed per evaluation, the shared
 * RareEventTable is immutable after construction, and no predictor
 * holds random state). That makes the table builds embarrassingly
 * parallel, and this engine fans them out across a ThreadPool while
 * keeping the output *deterministic*: results are collected in
 * submission order, so the printed tables are byte-identical whether
 * the pool runs one worker or sixteen.
 *
 * Deadlock rule: tasks submitted here never submit-and-wait on the
 * same pool. Fan-outs are flat — the caller (holding no pool thread)
 * is the only waiter.
 */

#ifndef QDEL_SIM_REPLAY_PARALLEL_EVALUATION_HH
#define QDEL_SIM_REPLAY_PARALLEL_EVALUATION_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/replay/evaluation.hh"
#include "util/thread_pool.hh"

namespace qdel {
namespace sim {

/**
 * One independent table cell: a trace replayed against one method
 * under one configuration. The trace is shared (read-only) so a suite
 * evaluating M methods over the same trace does not copy it M times.
 */
struct EvaluationJob
{
    std::shared_ptr<const trace::Trace> trace;
    std::string method;
    core::PredictorOptions options;
    ReplayConfig config;
};

/** See file comment. */
class ParallelEvaluator
{
  public:
    /**
     * @param threads Worker count; <= 0 resolves via
     *                ThreadPool::defaultThreadCount() (the QDEL_THREADS
     *                environment variable, else hardware concurrency).
     *                1 gives the sequential reference behaviour.
     */
    explicit ParallelEvaluator(long long threads = 0);

    /** Workers actually running. */
    size_t threadCount() const { return pool_.size(); }

    /**
     * Evaluate every job concurrently; result i corresponds to
     * jobs[i] regardless of completion order or worker count.
     */
    std::vector<EvaluationCell>
    evaluateSuite(const std::vector<EvaluationJob> &jobs);

    /** sim::evaluateByProcRange() on threadCount() workers. */
    std::vector<EvaluationCell>
    evaluateByProcRange(const trace::Trace &t, const std::string &method,
                        const core::PredictorOptions &options,
                        const ReplayConfig &config = {},
                        size_t min_jobs = 1000);

    /**
     * The underlying pool, for bench-specific fan-outs (parallel trace
     * synthesis, custom predictor configurations) that still want the
     * submission-order determinism discipline. Do not submit tasks
     * that wait on other tasks of this pool.
     */
    ThreadPool &pool() { return pool_; }

  private:
    ThreadPool pool_;
};

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_PARALLEL_EVALUATION_HH
