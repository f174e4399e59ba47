/**
 * @file
 * Implementation of the live calibration verdict.
 */

#include "stats/calibration.hh"

#include "stats/special_functions.hh"

namespace qdel {
namespace stats {

CalibrationVerdict
assessCalibration(std::size_t hits, std::size_t n, double confidence,
                  std::size_t minSamples, double alpha)
{
    CalibrationVerdict verdict;
    if (n == 0)
        return verdict;
    verdict.coverage =
        static_cast<double>(hits) / static_cast<double>(n);
    verdict.drift = verdict.coverage - confidence;
    verdict.pValue = binomialCdf(static_cast<long long>(hits),
                                 static_cast<long long>(n), confidence);
    verdict.failing = n >= minSamples && verdict.pValue < alpha;
    return verdict;
}

} // namespace stats
} // namespace qdel
