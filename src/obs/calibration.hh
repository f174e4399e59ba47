/**
 * @file
 * Online calibration window: the live analogue of the paper's
 * correct-fraction tables. A bound at confidence C must cover the
 * observed wait at least C of the time; CalibrationWindow keeps a
 * bounded chronological record of hit/miss outcomes for one predictor
 * entry so the service can report rolling empirical coverage, which
 * stats::assessCalibration() turns into a verdict.
 *
 * Deterministic and dependency-free (std only): qdel_obs sits below
 * qdel_stats in the link graph.
 */

#ifndef QDEL_OBS_CALIBRATION_HH
#define QDEL_OBS_CALIBRATION_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qdel {
namespace obs {

/**
 * Fixed-capacity chronological ring of hit/miss outcomes for one
 * (machine, queue, proc-bucket) entry. Oldest outcomes are evicted as
 * new ones arrive, so coverage() tracks *recent* behavior and recovers
 * after a refit fixes a drifting predictor — unlike lifetime counters,
 * which a long correct prefix can mask forever.
 *
 * Not thread-safe: the serve registry mutates it only under the owning
 * shard's writer lock, making the window a deterministic function of
 * the shard's event sequence (so WAL replay reconstructs it exactly).
 */
class CalibrationWindow
{
  public:
    static constexpr std::size_t kCapacity = 256;

    /** Record one scored outcome; evicts the oldest once full. */
    void record(bool hit);

    /** Outcomes currently held (<= kCapacity). */
    std::size_t count() const { return size_; }

    /** Hits among the held outcomes. */
    std::size_t hits() const { return hits_; }

    /** hits()/count(); -1 when empty (distinguishable from 0.0). */
    double coverage() const;

    /** Forget everything (test isolation / entry reset). */
    void clear();

    /**
     * Chronological dump, oldest outcome first, one byte per outcome
     * (0 = miss, 1 = hit). restore() replays a dump through record(),
     * so save -> restore round-trips the observable state exactly.
     */
    std::vector<uint8_t> serialize() const;
    void restore(const std::vector<uint8_t> &outcomes);

  private:
    std::array<uint8_t, kCapacity> slots_{};
    std::size_t size_ = 0;
    std::size_t next_ = 0;  //!< overwrite cursor once full.
    std::size_t hits_ = 0;
};

} // namespace obs
} // namespace qdel

#endif // QDEL_OBS_CALIBRATION_HH
