/**
 * @file
 * Implementation of the replay evaluation simulator.
 */

#include "sim/replay/replay_simulator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <type_traits>

#include "persist/checkpoint.hh"
#include "persist/io.hh"
#include "persist/state_codec.hh"
#include "sim/replay/replay_core.hh"

namespace qdel {
namespace sim {

namespace {

/** Bumped when the replay snapshot payload changes incompatibly. */
constexpr uint32_t kReplayStateVersion = 1;
constexpr char kReplayStateTag[] = "replay-driver";

/**
 * Identity of the input trace: size and a CRC over the raw bit
 * patterns of every (submit, wait) pair. Resuming against a different
 * trace would silently corrupt the evaluation, so decode rejects a
 * fingerprint mismatch.
 */
uint64_t
traceFingerprint(const trace::Trace &t)
{
    uint32_t crc = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        uint64_t bits[2];
        static_assert(sizeof(double) == sizeof(uint64_t));
        std::memcpy(&bits[0], &t[i].submitTime, sizeof(bits[0]));
        std::memcpy(&bits[1], &t[i].waitSeconds, sizeof(bits[1]));
        crc = persist::crc32(bits, sizeof(bits), crc);
    }
    return (static_cast<uint64_t>(t.size()) << 32) ^ crc;
}

Expected<std::string>
encodeReplayState(uint64_t fingerprint, const ReplayConfig &config,
                  const ReplayProbe &probe, ReplayCore &core,
                  const core::Predictor &predictor)
{
    persist::StateWriter writer;
    persist::writeStateHeader(writer, kReplayStateTag, kReplayStateVersion);
    writer.u64(fingerprint);
    // Config and probe echo: a resumed run must be asking the same
    // question as the interrupted one.
    writer.f64(config.epochSeconds);
    writer.f64(config.trainFraction);
    writer.u8(probe.captureSeries ? 1 : 0);
    writer.f64(probe.seriesBegin);
    writer.f64(probe.seriesEnd);
    writer.f64(probe.snapshotInterval);
    writer.u64(probe.snapshotQuantiles.size());
    for (const auto &[q, upper] : probe.snapshotQuantiles) {
        writer.f64(q);
        writer.u8(upper ? 1 : 0);
    }
    // Driver position and accumulated results.
    const ReplayCoreState &state = core.state();
    writer.u64(state.processed);
    writer.u8(state.trainingFinalized ? 1 : 0);
    writer.f64(state.nextRefit);
    writer.f64(state.nextSnapshot);
    writer.u64(state.evaluated);
    writer.u64(state.correct);
    writer.u64(state.infinite);
    writer.doubles(core.ratios().buffered());
    writer.u64(state.pending.size());
    for (const PendingRelease &release : state.pending) {
        writer.f64(release.time);
        writer.f64(release.wait);
    }
    writer.u64(state.series.size());
    for (const SeriesPoint &point : state.series) {
        writer.f64(point.time);
        writer.f64(point.value);
    }
    writer.u64(state.snapshots.size());
    for (const QuantileSnapshot &snap : state.snapshots) {
        writer.f64(snap.time);
        writer.doubles(snap.values);
    }
    if (auto ok = predictor.saveState(writer); !ok.ok())
        return ok.error();
    return writer.take();
}

/**
 * Inverse of encodeReplayState(). Parses into locals and commits to
 * @p state / @p ratios only when the whole payload (including the
 * predictor sub-payload) verified — except the predictor itself, whose
 * loadState() commits as soon as *its* parse succeeds; the caller
 * tracks that via @p predictor_loaded and refuses to cold-start with a
 * half-restored predictor.
 */
Expected<Unit>
decodeReplayState(const std::string &payload, uint64_t fingerprint,
                  size_t trace_size, const ReplayConfig &config,
                  const ReplayProbe &probe, ReplayCoreState *state,
                  std::vector<double> *ratios, core::Predictor &predictor,
                  bool *predictor_loaded)
{
    persist::StateReader reader(payload, "replay-snapshot");
    if (auto ok = persist::readStateHeader(reader, kReplayStateTag,
                                           kReplayStateVersion);
        !ok.ok())
        return ok.error();

    // Every read after the first failure yields a zero value; the
    // first error is returned before anything is committed.
    std::optional<ParseError> error;
    auto take = [&error](auto &&got) {
        using T = std::decay_t<decltype(got.value())>;
        if (got.ok())
            return T(std::move(got).value());
        if (!error)
            error = got.error();
        return T{};
    };

    const uint64_t fp = take(reader.u64());
    if (!error && fp != fingerprint) {
        return ParseError{"", 0, "fingerprint",
                          "checkpoint was written for a different trace"};
    }
    bool same = take(reader.f64()) == config.epochSeconds;
    same = take(reader.f64()) == config.trainFraction && same;
    same = (take(reader.u8()) != 0) == probe.captureSeries && same;
    same = take(reader.f64()) == probe.seriesBegin && same;
    same = take(reader.f64()) == probe.seriesEnd && same;
    same = take(reader.f64()) == probe.snapshotInterval && same;
    const uint64_t n_quantiles = take(reader.u64());
    same = n_quantiles == probe.snapshotQuantiles.size() && same;
    for (uint64_t i = 0; i < n_quantiles && !error; ++i) {
        const double q = take(reader.f64());
        const bool upper = take(reader.u8()) != 0;
        same = same && q == probe.snapshotQuantiles[i].first &&
               upper == probe.snapshotQuantiles[i].second;
    }
    if (error)
        return *error;
    if (!same) {
        return ParseError{"", 0, "config",
                          "checkpoint was written under a different "
                          "replay config or probe"};
    }

    ReplayCoreState decoded;
    decoded.processed = take(reader.u64());
    decoded.trainingFinalized = take(reader.u8()) != 0;
    decoded.nextRefit = take(reader.f64());
    decoded.nextSnapshot = take(reader.f64());
    decoded.evaluated = take(reader.u64());
    decoded.correct = take(reader.u64());
    decoded.infinite = take(reader.u64());
    std::vector<double> decoded_ratios = take(reader.doubles());
    const uint64_t n_pending = take(reader.u64());
    if (error)
        return *error;
    if (decoded.processed > trace_size) {
        return ParseError{"", 0, "nextJob",
                          "checkpoint is ahead of the trace (" +
                              std::to_string(decoded.processed) + " > " +
                              std::to_string(trace_size) + " jobs)"};
    }
    for (uint64_t i = 0; i < n_pending && !error; ++i) {
        const double time = take(reader.f64());
        decoded.pending.push_back({time, take(reader.f64())});
    }
    const uint64_t n_series = take(reader.u64());
    for (uint64_t i = 0; i < n_series && !error; ++i) {
        const double time = take(reader.f64());
        decoded.series.push_back({time, take(reader.f64())});
    }
    const uint64_t n_snapshots = take(reader.u64());
    for (uint64_t i = 0; i < n_snapshots && !error; ++i) {
        const double time = take(reader.f64());
        decoded.snapshots.push_back({time, take(reader.doubles())});
    }
    if (error)
        return *error;

    *predictor_loaded = true;  // loadState commits on its own success
    if (auto ok = predictor.loadState(reader); !ok.ok()) {
        *predictor_loaded = false;
        return ok.error();
    }
    if (auto ok = reader.expectEnd(); !ok.ok())
        return ok.error();
    *state = std::move(decoded);
    *ratios = std::move(decoded_ratios);
    return Unit{};
}

} // namespace

Expected<Unit>
ReplayConfig::validate() const
{
    // Negated comparisons so NaN fails validation too.
    if (!(trainFraction >= 0.0 && trainFraction < 1.0)) {
        return ParseError{"", 0, "trainFraction",
                          "must lie in [0, 1), got " +
                              std::to_string(trainFraction)};
    }
    if (!(epochSeconds >= 0.0) || !std::isfinite(epochSeconds)) {
        return ParseError{"", 0, "epochSeconds",
                          "must be finite and >= 0, got " +
                              std::to_string(epochSeconds)};
    }
    return Unit{};
}

Expected<Unit>
ReplayCheckpointOptions::validate() const
{
    if (!enabled())
        return Unit{};
    if (keepSnapshots == 0) {
        return ParseError{dir, 0, "keepSnapshots",
                          "must retain at least one snapshot"};
    }
    return Unit{};
}

Expected<Unit>
ReplayProbe::validate() const
{
    if (!snapshotQuantiles.empty()) {
        // A snapshot tick that re-arms at now + interval <= now would
        // spin forever in advance_to().
        if (!(snapshotInterval > 0.0) || !std::isfinite(snapshotInterval)) {
            return ParseError{"", 0, "snapshotInterval",
                              "must be finite and > 0 when snapshot "
                              "quantiles are requested, got " +
                                  std::to_string(snapshotInterval)};
        }
        for (const auto &[q, upper] : snapshotQuantiles) {
            if (!(q > 0.0 && q < 1.0)) {
                return ParseError{"", 0, "snapshotQuantiles",
                                  "quantiles must be in (0, 1), got " +
                                      std::to_string(q)};
            }
        }
    }
    if (captureSeries || !snapshotQuantiles.empty()) {
        if (!std::isfinite(seriesBegin) || !std::isfinite(seriesEnd) ||
            !(seriesEnd >= seriesBegin)) {
            return ParseError{"", 0, "seriesBegin/seriesEnd",
                              "capture window must be finite with end >= "
                              "begin"};
        }
    }
    return Unit{};
}

ReplaySimulator::ReplaySimulator(ReplayConfig config)
    : config_(config)
{
}

Expected<ReplayResult>
ReplaySimulator::run(const trace::Trace &t, core::Predictor &predictor,
                     const ReplayProbe &probe,
                     const ReplayCheckpointOptions &ckpt) const
{
    if (auto valid = config_.validate(); !valid.ok())
        return valid.error();
    if (auto valid = probe.validate(); !valid.ok())
        return valid.error();
    if (auto valid = ckpt.validate(); !valid.ok())
        return valid.error();
    if (!t.isSorted()) {
        return ParseError{
            "", 0, "trace",
            "ReplaySimulator: trace must be sorted by submission time"};
    }

    if (t.empty())
        return ReplayResult{};
    ReplayCore core(predictor, t.size(), config_, probe);
    core.arm(t[0].submitTime);  // the opening snapshot records the clock

    // --- Crash safety -------------------------------------------------
    std::optional<persist::CheckpointManager> manager;
    uint64_t fingerprint = 0;
    std::vector<std::string> notes;  //!< Recovery-ladder decisions.
    if (ckpt.enabled()) {
        fingerprint = traceFingerprint(t);
        persist::CheckpointConfig cc;
        cc.dir = ckpt.dir;
        cc.keepSnapshots = ckpt.keepSnapshots;
        cc.syncEveryRecords = ckpt.walSyncEveryRecords;
        auto opened = persist::CheckpointManager::open(cc);
        if (!opened.ok())
            return opened.error();
        manager.emplace(std::move(opened).value());

        if (manager->hasExistingState()) {
            if (!ckpt.resume) {
                return ParseError{
                    ckpt.dir, 0, "checkpoint-dir",
                    "directory already contains checkpoint state; "
                    "resume it (--resume) or use a fresh directory"};
            }
            bool predictor_loaded = false;
            std::vector<double> ratios;
            // A snapshot written for a different trace or under a
            // different config is a mismatch, not corruption: the
            // ladder must not degrade it into a silent cold start.
            std::optional<ParseError> incompatible;
            auto report = persist::recoverState(
                cc,
                [&](const std::string &payload) {
                    auto decoded = decodeReplayState(
                        payload, fingerprint, t.size(), config_, probe,
                        &core.state(), &ratios, predictor,
                        &predictor_loaded);
                    if (!decoded.ok() && !incompatible &&
                        (decoded.error().field == "fingerprint" ||
                         decoded.error().field == "config")) {
                        incompatible = decoded.error();
                    }
                    return decoded;
                },
                // The trace is the replay's input log: driver position
                // cannot be advanced by WAL records, so resume is
                // snapshot-only.
                nullptr);
            if (!report.ok())
                return report.error();
            if (incompatible)
                return *incompatible;
            notes.push_back(
                std::string("recovery source: ") +
                persist::recoverySourceName(report.value().source));
            notes.insert(notes.end(), report.value().notes.begin(),
                         report.value().notes.end());
            if (report.value().source ==
                    persist::RecoverySource::ColdStart &&
                predictor_loaded) {
                return ParseError{
                    ckpt.dir, 0, "recovery",
                    "no snapshot fully applied but the predictor was "
                    "partially restored; use a fresh predictor instance"};
            }
            core.ratios().append(ratios.data(), ratios.size());
        } else if (ckpt.resume) {
            notes.push_back(
                "resume requested but directory is pristine; cold start");
        }
        core.logTo(*manager);
    }

    auto write_checkpoint = [&]() -> Expected<Unit> {
        auto payload =
            encodeReplayState(fingerprint, config_, probe, core, predictor);
        if (!payload.ok())
            return payload.error();
        return manager->checkpoint(payload.value());
    };

    // The opening checkpoint both verifies the predictor supports
    // persistence before hours of replay are invested and rotates any
    // recovered generation to a clean snapshot + fresh WAL segment.
    if (manager) {
        if (auto ok = write_checkpoint(); !ok.ok())
            return ok.error();
    }

    auto report_progress = [&]() {
        const ReplayCoreState &state = core.state();
        config_.onProgress(
            {state.processed, t.size(), state.evaluated, state.correct});
    };
    const bool progress =
        config_.progressEveryJobs > 0 && config_.onProgress != nullptr;
    const size_t interval = manager ? ckpt.intervalJobs : 0;

    // Feed the trace in chunks that end on every progress and
    // checkpoint boundary, so both see the state after exactly that
    // many jobs.
    const size_t resumed = core.state().processed;
    std::vector<double> submit, wait;
    for (size_t next = resumed; next < t.size();) {
        size_t end = std::min(t.size(), next + kChunkJobs);
        for (size_t every : {progress ? config_.progressEveryJobs : 0,
                             interval}) {
            if (every > 0)
                end = std::min(end, (next / every + 1) * every);
        }
        submit.clear();
        wait.clear();
        for (size_t i = next; i < end; ++i) {
            submit.push_back(t[i].submitTime);
            wait.push_back(t[i].waitSeconds);
        }
        if (auto ok = core.feed(submit.data(), wait.data(), end - next);
            !ok.ok())
            return ok.error();
        next = end;

        if (progress && next % config_.progressEveryJobs == 0)
            report_progress();
        if (interval > 0 && next % interval == 0 && next < t.size()) {
            if (auto ok = write_checkpoint(); !ok.ok())
                return ok.error();
        }
    }

    // Drain the window for the figure/table probes, and let the last
    // releases feed the history so snapshots after the final arrival
    // stay live. Idempotent on resume: a re-drained run finds every
    // event at or before the window end already consumed.
    if (probe.captureSeries || !probe.snapshotQuantiles.empty()) {
        if (auto ok = core.advanceTo(probe.seriesEnd); !ok.ok())
            return ok.error();
    }

    // Closing checkpoint: a resume of a finished run replays nothing.
    if (manager) {
        if (auto ok = write_checkpoint(); !ok.ok())
            return ok.error();
    }

    if (progress)
        report_progress();

    auto finished = core.finish();
    if (!finished.ok())
        return finished.error();
    finished.value().resumedFromJob = resumed;
    finished.value().recoveryNotes = std::move(notes);
    return finished;
}

} // namespace sim
} // namespace qdel
