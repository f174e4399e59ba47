/**
 * @file
 * Implementation of the experiment helpers.
 */

#include "sim/replay/evaluation.hh"

#include "core/bmbp_predictor.hh"
#include "core/lognormal_predictor.hh"
#include "sim/replay/stream_replay.hh"

namespace qdel {
namespace sim {

size_t
predictorTrimCount(const core::Predictor &predictor)
{
    if (auto *bmbp = dynamic_cast<const core::BmbpPredictor *>(&predictor))
        return bmbp->trimCount();
    if (auto *logn =
            dynamic_cast<const core::LogNormalPredictor *>(&predictor))
        return logn->trimCount();
    return 0;
}

EvaluationCell
evaluateTrace(const trace::Trace &t, const std::string &method,
              const core::PredictorOptions &options,
              const ReplayConfig &config)
{
    // Contract: method/options/config come pre-validated (front ends
    // run tryMakePredictor()/ReplayConfig::validate() on user input
    // first), so unwrapping here panics only on a programmer error.
    auto predictor = core::makePredictor(method, options);
    const ReplayResult r = ReplaySimulator(config).run(t, *predictor).value();
    return {r.totalJobs, r.evaluatedJobs, r.correctFraction, r.medianRatio,
            predictorTrimCount(*predictor)};
}

std::vector<EvaluationCell>
evaluateByProcRange(const trace::Trace &t, const std::string &method,
                    const core::PredictorOptions &options,
                    const ReplayConfig &config, size_t min_jobs,
                    long long threads)
{
    StreamReplayConfig stream;
    stream.epochSeconds = config.epochSeconds;
    stream.trainFraction = config.trainFraction;
    stream.threads = threads;
    // Pre-validated inputs, as for evaluateTrace().
    const StreamReplayResult outcome =
        replayTrace(TraceCells(t, {""}, true), method, options, stream)
            .value();
    std::vector<EvaluationCell> cells;
    for (const QueueStreamResult &range : outcome.queues) {
        const ReplayResult &r = range.result;
        cells.push_back(r.totalJobs < min_jobs
                            ? EvaluationCell{r.totalJobs}
                            : EvaluationCell{r.totalJobs, r.evaluatedJobs,
                                             r.correctFraction,
                                             r.medianRatio, range.trims});
    }
    return cells;
}

} // namespace sim
} // namespace qdel
