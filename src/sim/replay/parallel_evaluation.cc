/**
 * @file
 * Implementation of the parallel evaluation engine.
 */

#include "sim/replay/parallel_evaluation.hh"

#include <future>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace qdel {
namespace sim {

ParallelEvaluator::ParallelEvaluator(long long threads)
    : pool_(ThreadPool::resolveThreadCount(threads))
{
}

std::vector<EvaluationCell>
ParallelEvaluator::evaluateSuite(const std::vector<EvaluationJob> &jobs)
{
    std::vector<std::future<EvaluationCell>> futures;
    futures.reserve(jobs.size());
    for (const EvaluationJob &job : jobs) {
        if (!job.trace)
            panic("ParallelEvaluator::evaluateSuite: null trace");
        futures.push_back(pool_.submit([&job] {
            QDEL_OBS_SPAN(span, obs::replayMetrics().evalTaskSeconds,
                          obs::EventType::Span, "eval_trace");
            return evaluateTrace(*job.trace, job.method, job.options,
                                 job.config);
        }));
    }
    std::vector<EvaluationCell> cells;
    cells.reserve(jobs.size());
    for (auto &future : futures)
        cells.push_back(future.get());
    return cells;
}

std::vector<EvaluationCell>
ParallelEvaluator::evaluateByProcRange(const trace::Trace &t,
                                       const std::string &method,
                                       const core::PredictorOptions &options,
                                       const ReplayConfig &config,
                                       size_t min_jobs)
{
    return sim::evaluateByProcRange(t, method, options, config, min_jobs,
                                    static_cast<long long>(pool_.size()));
}

} // namespace sim
} // namespace qdel
