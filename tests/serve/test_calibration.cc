/**
 * @file
 * Online calibration contract tests.
 *
 * The load-bearing one drives a replayed event stream through the
 * registry while an in-test oracle applies the offline scoring rule
 * (freeze the published bound at submit, judge it at start, count
 * infinite bounds as covering, score only post-training jobs) — the
 * live report must agree exactly, and its empirical coverage must sit
 * within binomial tolerance of the requested confidence. A deliberately
 * mis-specified predictor (the raw 0.5-percentile claiming C = 0.95)
 * must trip the binomial failing flag.
 */

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/calibration.hh"
#include "persist/state_codec.hh"
#include "serve/bound_registry.hh"
#include "stats/calibration.hh"

namespace qdel {
namespace serve {
namespace {

/** Deterministic lognormal wait series. */
std::vector<double>
syntheticWaits(size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::lognormal_distribution<double> dist(5.0, 1.5);
    std::vector<double> waits;
    waits.reserve(n);
    for (size_t i = 0; i < n; ++i)
        waits.push_back(dist(rng));
    return waits;
}

JobEvent
makeEvent(EventKind kind, uint64_t job, double time)
{
    JobEvent event;
    event.kind = kind;
    event.jobId = job;
    event.time = time;
    event.machine = "m";
    event.queue = "q";
    event.procs = 4;
    return event;
}

TEST(CalibrationMath, BinomialTailMatchesTheStatsOracle)
{
    // The verdict's p-value is stats::binomialCdf; it must agree with
    // an exact log-space summation of the pmf to floating-point noise
    // across small and large n.
    const auto oracle = [](long long k, long long n, double p) {
        double sum = 0.0;
        for (long long i = 0; i <= k; ++i) {
            const double di = static_cast<double>(i);
            const double dn = static_cast<double>(n);
            sum += std::exp(std::lgamma(dn + 1.0) - std::lgamma(di + 1.0) -
                            std::lgamma(dn - di + 1.0) + di * std::log(p) +
                            (dn - di) * std::log1p(-p));
        }
        return std::min(1.0, sum);
    };
    for (const long long n : {1LL, 7LL, 50LL, 256LL, 1000LL}) {
        for (const double p : {0.05, 0.5, 0.9, 0.95, 0.99}) {
            for (long long k = 0; k <= n; k += std::max(1LL, n / 17)) {
                const double ours =
                    stats::assessCalibration(static_cast<size_t>(k),
                                             static_cast<size_t>(n), p)
                        .pValue;
                EXPECT_NEAR(ours, oracle(k, n, p), 1e-9)
                    << "k=" << k << " n=" << n << " p=" << p;
            }
        }
    }
    EXPECT_EQ(stats::assessCalibration(0, 0, 0.5).pValue, 1.0);
    EXPECT_EQ(stats::assessCalibration(5, 5, 0.5).pValue, 1.0);
    EXPECT_EQ(stats::assessCalibration(0, 10, 0.0).pValue, 1.0);
    EXPECT_EQ(stats::assessCalibration(9, 10, 1.0).pValue, 0.0);
}

TEST(CalibrationMath, WindowRingWrapsAndSerializes)
{
    obs::CalibrationWindow window;
    EXPECT_EQ(window.coverage(), -1.0);

    // Fill past capacity with a recognizable pattern: the first
    // kCapacity outcomes are misses, everything after is a hit, so a
    // full rotation leaves only hits resident.
    for (size_t i = 0; i < obs::CalibrationWindow::kCapacity; ++i)
        window.record(false);
    EXPECT_EQ(window.hits(), 0u);
    for (size_t i = 0; i < obs::CalibrationWindow::kCapacity; ++i)
        window.record(true);
    EXPECT_EQ(window.count(), obs::CalibrationWindow::kCapacity);
    EXPECT_EQ(window.hits(), obs::CalibrationWindow::kCapacity);
    EXPECT_EQ(window.coverage(), 1.0);

    // Partial overwrite: 10 misses evict 10 hits.
    for (int i = 0; i < 10; ++i)
        window.record(false);
    EXPECT_EQ(window.hits(), obs::CalibrationWindow::kCapacity - 10);

    // Serialize/restore preserves contents and order.
    const auto bytes = window.serialize();
    EXPECT_EQ(bytes.size(), window.count());
    obs::CalibrationWindow copy;
    copy.restore(bytes);
    EXPECT_EQ(copy.count(), window.count());
    EXPECT_EQ(copy.hits(), window.hits());
}

TEST(CalibrationMath, AssessOnlyFlagsWithEvidence)
{
    // Below the sample floor nothing fails, however bad the coverage.
    EXPECT_FALSE(stats::assessCalibration(0, 49, 0.95).failing);
    // A perfectly calibrated window is clean.
    EXPECT_FALSE(stats::assessCalibration(95, 100, 0.95).failing);
    // Half coverage claiming 0.95 over 100 samples is overwhelming
    // evidence of miscalibration.
    const auto verdict = stats::assessCalibration(50, 100, 0.95);
    EXPECT_TRUE(verdict.failing);
    EXPECT_LT(verdict.pValue, 1e-3);
    EXPECT_NEAR(verdict.coverage, 0.5, 1e-12);
    EXPECT_NEAR(verdict.drift, -0.45, 1e-12);
}

TEST(Calibration, LiveReportMatchesTheOfflineScoringOracle)
{
    BoundRegistry::Options options;
    options.shards = 2;
    options.method = "bmbp";
    options.quantile = 0.95;
    options.confidence = 0.95;
    options.refitEvery = 10;
    options.trainObservations = 20;
    ASSERT_TRUE(options.validate().ok());
    BoundRegistry registry(options);

    const auto waits = syntheticWaits(400, 7);
    BoundQuery probe;
    probe.machine = "m";
    probe.queue = "q";
    probe.procs = 4;
    probe.quantile = options.quantile;

    uint64_t oracle_scored = 0, oracle_hits = 0, oracle_infinite = 0;
    double t = 0.0;
    for (size_t i = 0; i < waits.size(); ++i) {
        t += 1.0;
        // The oracle freezes the published bound the instant the
        // submit is processed — exactly what a live client querying at
        // submit time would have been told.
        const BoundAnswer at_submit = registry.query(probe);
        const bool scoreable =
            at_submit.known &&
            at_submit.observations >= options.trainObservations;
        const double frozen = at_submit.upper;

        ASSERT_TRUE(
            registry.apply(makeEvent(EventKind::Submit, i + 1, t))
                .applied);
        ASSERT_TRUE(registry
                        .apply(makeEvent(EventKind::Start, i + 1,
                                         t + waits[i]))
                        .applied);
        if (!scoreable)
            continue;
        ++oracle_scored;
        if (!std::isfinite(frozen)) {
            ++oracle_infinite;
            ++oracle_hits;  // Offline rule: no usable bound == covered.
        } else if (frozen >= waits[i]) {
            ++oracle_hits;
        }
    }

    const auto report = registry.calibrationReport();
    ASSERT_EQ(report.rows.size(), 1u);
    const auto &row = report.rows[0];
    EXPECT_EQ(row.machine, "m");
    EXPECT_EQ(row.queue, "q");
    EXPECT_TRUE(row.finalized);
    EXPECT_EQ(row.scored, oracle_scored);
    EXPECT_EQ(row.hits, oracle_hits);
    EXPECT_EQ(row.infinite, oracle_infinite);
    ASSERT_GT(row.scored, 100u) << "trace too short to say anything";

    // Empirical coverage within binomial tolerance of the requested
    // confidence: 4 sigma of Bin(n, C) leaves ~6e-5 flake probability,
    // and the deterministic seed pins it in practice.
    const double n = static_cast<double>(row.scored);
    const double tolerance =
        4.0 * std::sqrt(0.95 * 0.05 / n) + 1.0 / n;
    EXPECT_GE(row.lifetimeCoverage, 0.95 - tolerance);
    EXPECT_FALSE(row.failing);
    EXPECT_EQ(report.failingEntries, 0u);
    EXPECT_EQ(report.scoredEntries, 1u);
}

TEST(Calibration, MisSpecifiedPredictorTripsTheFailingFlag)
{
    // The raw 0.5-percentile covers ~half of waits; claiming C = 0.95
    // for it is exactly the miscalibration the binomial test exists to
    // catch.
    BoundRegistry::Options options;
    options.shards = 1;
    options.method = "percentile";
    options.quantile = 0.5;
    options.confidence = 0.95;
    options.refitEvery = 10;
    options.trainObservations = 20;
    ASSERT_TRUE(options.validate().ok());
    BoundRegistry registry(options);

    const auto waits = syntheticWaits(400, 11);
    double t = 0.0;
    for (size_t i = 0; i < waits.size(); ++i) {
        t += 1.0;
        ASSERT_TRUE(
            registry.apply(makeEvent(EventKind::Submit, i + 1, t))
                .applied);
        ASSERT_TRUE(registry
                        .apply(makeEvent(EventKind::Start, i + 1,
                                         t + waits[i]))
                        .applied);
    }

    const auto report = registry.calibrationReport();
    ASSERT_EQ(report.rows.size(), 1u);
    const auto &row = report.rows[0];
    ASSERT_GE(row.windowCount, 50u);
    EXPECT_LT(row.windowCoverage, 0.75);
    EXPECT_TRUE(row.failing);
    EXPECT_LT(row.pValue, 1e-3);
    EXPECT_EQ(report.failingEntries, 1u);
    EXPECT_GT(report.maxUndercoverage, 0.1);
}

TEST(Calibration, ShardStateV3RoundTripsCalibrationAndPendingBounds)
{
    BoundRegistry::Options options;
    options.shards = 1;
    options.method = "bmbp";
    options.refitEvery = 10;
    options.trainObservations = 20;
    ASSERT_TRUE(options.validate().ok());

    BoundRegistry registry(options);
    const auto waits = syntheticWaits(120, 3);
    double t = 0.0;
    uint64_t job = 0;
    for (double wait : waits) {
        t += 1.0;
        ++job;
        ASSERT_TRUE(
            registry.apply(makeEvent(EventKind::Submit, job, t)).applied);
        ASSERT_TRUE(
            registry.apply(makeEvent(EventKind::Start, job, t + wait))
                .applied);
    }
    // Leave one job pending so the frozen bound-at-submit itself must
    // survive the round trip (it is scored only after restore).
    ASSERT_TRUE(
        registry.apply(makeEvent(EventKind::Submit, ++job, t + 1.0))
            .applied);

    persist::StateWriter writer;
    {
        auto lock = registry.lockShard(0);
        ASSERT_TRUE(registry.saveShard(0, writer).ok());
    }
    const std::string payload = writer.take();

    BoundRegistry restored(options);
    {
        auto lock = restored.lockShard(0);
        persist::StateReader reader(payload, "test-shard");
        ASSERT_TRUE(restored.loadShard(0, reader).ok());
        ASSERT_TRUE(reader.expectEnd().ok());
    }
    EXPECT_EQ(registry.digest(), restored.digest());

    const auto before = registry.calibrationReport();
    const auto after = restored.calibrationReport();
    ASSERT_EQ(before.rows.size(), after.rows.size());
    EXPECT_EQ(before.rows[0].scored, after.rows[0].scored);
    EXPECT_EQ(before.rows[0].hits, after.rows[0].hits);
    EXPECT_EQ(before.rows[0].infinite, after.rows[0].infinite);
    EXPECT_EQ(before.rows[0].windowCount, after.rows[0].windowCount);
    EXPECT_EQ(before.rows[0].windowHits, after.rows[0].windowHits);

    // Starting the pending job after restore scores it against the
    // persisted frozen bound — both instances must agree bit-exactly.
    const JobEvent start = makeEvent(EventKind::Start, job, t + 50.0);
    ASSERT_TRUE(registry.apply(start).applied);
    ASSERT_TRUE(restored.apply(start).applied);
    EXPECT_EQ(registry.digest(), restored.digest());
    EXPECT_EQ(registry.calibrationReport().rows[0].scored,
              restored.calibrationReport().rows[0].scored);
}

TEST(Calibration, ShardInfoCountsPendingAndApplied)
{
    BoundRegistry::Options options;
    options.shards = 1;
    ASSERT_TRUE(options.validate().ok());
    BoundRegistry registry(options);

    ASSERT_TRUE(
        registry.apply(makeEvent(EventKind::Submit, 1, 1.0)).applied);
    ASSERT_TRUE(
        registry.apply(makeEvent(EventKind::Submit, 2, 2.0)).applied);
    ASSERT_TRUE(
        registry.apply(makeEvent(EventKind::Start, 1, 3.0)).applied);

    const auto info = registry.shardInfo(0);
    EXPECT_EQ(info.entries, 1u);
    EXPECT_EQ(info.pending, 1u);
    EXPECT_EQ(info.applied, 3u);
    EXPECT_EQ(info.rejected, 0u);
}

} // namespace
} // namespace serve
} // namespace qdel
