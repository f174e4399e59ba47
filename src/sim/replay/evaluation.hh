/**
 * @file
 * One-call experiment helpers shared by the bench harness, the tests,
 * and the examples: evaluate a prediction method over a trace (or over
 * a trace subdivided by processor-count range) and return the paper's
 * table cells (correct fraction, median actual/predicted ratio).
 */

#ifndef QDEL_SIM_REPLAY_EVALUATION_HH
#define QDEL_SIM_REPLAY_EVALUATION_HH

#include <string>

#include "core/predictor_factory.hh"
#include "sim/replay/replay_simulator.hh"
#include "trace/trace.hh"

namespace qdel {
namespace sim {

/** @return true when @p correct_fraction, rounded to two decimals as
 *  the paper's tables print it, meets @p quantile ("0.95" is met). */
inline bool
meetsQuantile(double correct_fraction, double quantile)
{
    const double rounded =
        static_cast<double>(
            static_cast<long long>(correct_fraction * 100.0 + 0.5)) /
        100.0;
    return rounded >= quantile;
}

/** One cell of a paper results table. */
struct EvaluationCell
{
    size_t jobs = 0;              //!< Jobs in the (sub)trace.
    size_t evaluated = 0;         //!< Scored predictions.
    double correctFraction = 0.0; //!< Paper Tables 3 and 5-7.
    double medianRatio = 0.0;     //!< Paper Table 4.
    size_t trims = 0;             //!< Change points detected (if any).

    /** @return true when the method met its advertised quantile. */
    bool
    correct(double quantile) const
    {
        return meetsQuantile(correctFraction, quantile);
    }
};

/**
 * Change points detected by @p predictor so far — 0 for methods
 * without trimming machinery. Centralizes the dynamic_cast dance over
 * the trimming-capable predictor types.
 */
size_t predictorTrimCount(const core::Predictor &predictor);

/**
 * Replay @p t against a factory-built predictor.
 *
 * @param t       Trace (sorted by submission).
 * @param method  Factory name: "bmbp", "lognormal", "lognormal-trim", ...
 * @param options Quantile/confidence and shared rare-event table.
 * @param config  Replay epoch/training parameters.
 *
 * Contract: @p method, @p options and @p config are pre-validated
 * (user input goes through core::tryMakePredictor() and
 * ReplayConfig::validate() first); violations panic. This keeps the
 * hot evaluation path free of per-call error plumbing.
 */
EvaluationCell evaluateTrace(const trace::Trace &t,
                             const std::string &method,
                             const core::PredictorOptions &options,
                             const ReplayConfig &config = {});

/**
 * Paper Section 6.2: subdivide @p t by the four Table-5 processor
 * ranges in one pass and evaluate each subdivision independently, on
 * @p threads workers. Subdivisions with fewer than @p min_jobs jobs
 * are returned with jobs set but evaluated == 0 (the paper prints "-"
 * for those cells).
 */
std::vector<EvaluationCell>
evaluateByProcRange(const trace::Trace &t, const std::string &method,
                    const core::PredictorOptions &options,
                    const ReplayConfig &config = {},
                    size_t min_jobs = 1000, long long threads = 1);

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_EVALUATION_HH
