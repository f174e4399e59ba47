/**
 * @file
 * Implementation of the shared replay event loop.
 */

#include "sim/replay/replay_core.hh"

#include <algorithm>
#include <functional>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/checkpoint.hh"

namespace qdel {
namespace sim {

constexpr double kInf = std::numeric_limits<double>::infinity();

ReplayCore::ReplayCore(core::Predictor &predictor, size_t total_jobs,
                       const ReplayConfig &config, ReplayProbe probe,
                       std::string spill_path, size_t spill_threshold)
    : predictor_(predictor),
      epochSeconds_(config.epochSeconds),
      probe_(std::move(probe)),
      training_(static_cast<size_t>(config.trainFraction *
                                    static_cast<double>(total_jobs))),
      total_(total_jobs),
      ratios_(std::move(spill_path), spill_threshold)
{
    if (!probe_.snapshotQuantiles.empty())
        state_.nextSnapshot = probe_.seriesBegin;
}

void
ReplayCore::arm(double first_submit)
{
    state_.nextRefit = epochSeconds_ <= 0.0 ? kInf : first_submit;
}

Expected<Unit>
ReplayCore::log(persist::WalRecordType type, double value)
{
    if (wal_ == nullptr)
        return Unit{};
    return wal_->appendRecord({type, value});
}

Expected<Unit>
ReplayCore::refit()
{
    if (auto ok = log(persist::WalRecordType::Refit, 0.0); !ok.ok())
        return ok.error();
    predictor_.refit();
    return Unit{};
}

Expected<Unit>
ReplayCore::feed(const double *submit, const double *wait, size_t n)
{
    if (n > 0 && state_.processed == 0)
        arm(submit[0]);
    ratioScratch_.resize(std::max(ratioScratch_.size(), n));
    const bool epoch_per_job = epochSeconds_ <= 0.0;

    for (size_t r = 0; r < n;) {
        if (auto ok = advanceTo(submit[r]); !ok.ok())
            return ok.error();
        if (epoch_per_job) {
            if (auto ok = refit(); !ok.ok())
                return ok.error();
        }

        const size_t i = state_.processed;
        if (!state_.trainingFinalized && i >= training_) {
            if (auto ok = log(persist::WalRecordType::FinalizeTraining, 0.0);
                !ok.ok())
                return ok.error();
            predictor_.finalizeTraining();
            // Re-arm with the post-training state so the first scored
            // job sees a trained model even for epoch-based refits.
            if (auto ok = refit(); !ok.ok())
                return ok.error();
            state_.trainingFinalized = true;
        }

        // Extend a run of jobs with no event between their submits; the
        // bound is frozen over it, so one scoreBatch scores it. Events
        // fire at times <= submit, hence strict <; each job's own release
        // joins the horizon, as it can fire before a successor arrives.
        size_t s = r + 1;
        if (!epoch_per_job) {
            double horizon = std::min(
                {state_.pending.empty() ? kInf : state_.pending.front().time,
                 state_.nextRefit, state_.nextSnapshot, submit[r] + wait[r]});
            const size_t limit = state_.trainingFinalized
                                     ? n
                                     : std::min(n, r + (training_ - i));
            while (s < limit && submit[s] < horizon) {
                horizon = std::min(horizon, submit[s] + wait[s]);
                ++s;
            }
        }
        const size_t count = s - r;
        if (i >= training_)
            score(wait + r, count);

        for (size_t k = r; k < s; ++k) {
            state_.pending.push_back({submit[k] + wait[k], wait[k]});
            std::push_heap(state_.pending.begin(), state_.pending.end(),
                           std::greater<PendingRelease>{});
        }
        state_.processed += count;
        QDEL_OBS(obs::replayMetrics().jobsProcessed.inc(count));
        r = s;
    }
    return Unit{};
}

void
ReplayCore::score(const double *wait, size_t count)
{
    const auto scored =
        predictor_.scoreBatch(wait, count, ratioScratch_.data());
    state_.evaluated += count;
    state_.correct += scored.correct;
    state_.infinite += scored.infinite;
    if (scored.infinite == 0)
        ratios_.append(ratioScratch_.data(), count);
    QDEL_OBS({
        auto &metrics = obs::replayMetrics();
        metrics.predictions.inc(count);
        metrics.infinitePredictions.inc(scored.infinite);
        metrics.boundHits.inc(scored.correct - scored.infinite);
        metrics.boundMisses.inc(count - scored.correct);
        const double bound = predictor_.upperBound().value;
        for (size_t k = 0; k < count; ++k) {
            obs::events().emit(obs::EventType::PredictionIssued, bound,
                               wait[k]);
            if (scored.infinite == 0)
                obs::events().emit(bound >= wait[k]
                                       ? obs::EventType::BoundHit
                                       : obs::EventType::BoundMiss,
                                   bound, wait[k]);
        }
    });
}

Expected<Unit>
ReplayCore::advanceTo(double horizon)
{
    while (true) {
        const double t_release =
            state_.pending.empty() ? kInf : state_.pending.front().time;
        const double t_epoch = state_.nextRefit;
        const double t_snap = state_.nextSnapshot;
        const double now = std::min({t_release, t_epoch, t_snap});
        if (now > horizon)
            break;
        if (t_release <= t_epoch && t_release <= t_snap) {
            // Every release up to the next tick, in pop order.
            const double cap = std::min({horizon, t_epoch, t_snap});
            waitScratch_.clear();
            while (!state_.pending.empty() &&
                   state_.pending.front().time <= cap) {
                waitScratch_.push_back(state_.pending.front().wait);
                std::pop_heap(state_.pending.begin(), state_.pending.end(),
                              std::greater<PendingRelease>{});
                state_.pending.pop_back();
            }
            for (double wait : waitScratch_) {
                if (auto ok = log(persist::WalRecordType::Observation, wait);
                    !ok.ok())
                    return ok.error();
            }
            predictor_.observeBatch(waitScratch_.data(),
                                    waitScratch_.size());
        } else if (t_epoch <= t_snap) {
            if (auto ok = refit(); !ok.ok())
                return ok.error();
            if (probe_.captureSeries && now >= probe_.seriesBegin &&
                now < probe_.seriesEnd) {
                const auto bound = predictor_.upperBound();
                if (bound.finite())
                    state_.series.push_back({now, bound.value});
            }
            state_.nextRefit += epochSeconds_;
        } else {
            if (now < probe_.seriesEnd) {
                state_.snapshots.push_back({now, {}});
                for (const auto &[q, upper] : probe_.snapshotQuantiles) {
                    state_.snapshots.back().values.push_back(
                        predictor_.boundAt(q, upper).value);
                }
            }
            state_.nextSnapshot =
                now < probe_.seriesEnd ? now + probe_.snapshotInterval : kInf;
        }
    }
    return Unit{};
}

Expected<ReplayResult>
ReplayCore::finish()
{
    ReplayResult out;
    out.totalJobs = total_;
    if (total_ == 0)
        return out;
    out.trainingJobs = training_;
    out.evaluatedJobs = state_.evaluated;
    out.correct = state_.correct;
    out.infinitePredictions = state_.infinite;
    if (state_.evaluated > 0) {
        out.correctFraction = static_cast<double>(state_.correct) /
                              static_cast<double>(state_.evaluated);
    }
    if (ratios_.size() > 0) {
        auto median = ratios_.median();
        if (!median.ok())
            return median.error();
        out.medianRatio = median.value();
    }
    out.series = std::move(state_.series);
    out.snapshots = std::move(state_.snapshots);
    return out;
}

} // namespace sim
} // namespace qdel
