/**
 * @file
 * The live calibration verdict: turn a (hits, n) pair of scored bound
 * outcomes into coverage, drift from the requested confidence, and a
 * one-sided binomial test that flags an entry whose observed coverage
 * is significantly below C. The binomial tail is stats::binomialCdf,
 * the same one the order-statistic bounds use.
 */

#ifndef QDEL_STATS_CALIBRATION_HH
#define QDEL_STATS_CALIBRATION_HH

#include <cstddef>

namespace qdel {
namespace stats {

/** assessCalibration() output for one entry. */
struct CalibrationVerdict
{
    double coverage = -1.0;  //!< hits/n; -1 when n == 0.
    double drift = 0.0;      //!< coverage - confidence (negative = bad).
    double pValue = 1.0;     //!< P[X <= hits | n, confidence].
    bool failing = false;    //!< significantly under-covering.
};

/**
 * Judge observed coverage against the requested confidence. The flag
 * trips when the one-sided binomial test rejects "true coverage >= C"
 * at level @p alpha, i.e. P[Bin(n, C) <= hits] < alpha, and at least
 * @p minSamples outcomes back the verdict (small n trivially passes:
 * no evidence is not evidence of failure).
 */
CalibrationVerdict assessCalibration(std::size_t hits, std::size_t n,
                                     double confidence,
                                     std::size_t minSamples = 50,
                                     double alpha = 1e-3);

} // namespace stats
} // namespace qdel

#endif // QDEL_STATS_CALIBRATION_HH
