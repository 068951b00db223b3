/**
 * @file
 * Serving-mode tests: token-bucket admission edges, think-wheel
 * scheduling, sliding-window SLO quantiles against an exact
 * reference, arrival-rate modulation, registry delta snapshots, the
 * speculative-cancel accounting identities under load, and the
 * end-to-end ServiceLoop state machines (closed/open loops, denial
 * paths, in-flight capping) — plus a golden-pinned serving snapshot
 * CSV that must be byte-identical at any sweep thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "serve/service_loop.hh"
#include "serve/think_wheel.hh"
#include "sim/rng.hh"
#include "stats/sampler.hh"
#include "telemetry/registry.hh"
#include "workload/modulation.hh"

namespace {

using namespace idp;

// ---------------------------------------------------------------
// Token-bucket admission
// ---------------------------------------------------------------

TEST(ServeAdmission, BurstDrainsThenDenies)
{
    serve::TokenBucketParams params;
    params.ratePerSec = 2.0;
    params.burst = 4.0;
    serve::TokenBucketState state;
    state.tokens = params.burst; // seeded full, like the loop does

    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(serve::bucketAdmit(state, params, 0)) << i;
    EXPECT_FALSE(serve::bucketAdmit(state, params, 0));
    EXPECT_DOUBLE_EQ(state.tokens, 0.0);
}

TEST(ServeAdmission, RefillAccruesRateTimesElapsed)
{
    serve::TokenBucketParams params;
    params.ratePerSec = 2.0;
    params.burst = 4.0;
    serve::TokenBucketState state; // empty bucket

    // 0.25 s -> 0.5 tokens: still below one, denied.
    EXPECT_FALSE(serve::bucketAdmit(state, params,
                                    sim::secondsToTicks(0.25)));
    EXPECT_DOUBLE_EQ(state.tokens, 0.5);
    // 0.5 s -> exactly 1.0 tokens: admitted, consumed to zero.
    EXPECT_TRUE(serve::bucketAdmit(state, params,
                                   sim::secondsToTicks(0.5)));
    EXPECT_DOUBLE_EQ(state.tokens, 0.0);
}

TEST(ServeAdmission, RefillCapsAtBurst)
{
    serve::TokenBucketParams params;
    params.ratePerSec = 2.0;
    params.burst = 4.0;
    serve::TokenBucketState state;

    // An hour idle accrues far more than burst; the cap holds.
    EXPECT_TRUE(serve::bucketAdmit(state, params,
                                   sim::secondsToTicks(3600.0)));
    EXPECT_DOUBLE_EQ(state.tokens, 3.0); // 4.0 capped, minus one
}

TEST(ServeAdmission, SameTickDoesNotDoubleRefill)
{
    serve::TokenBucketParams params;
    params.ratePerSec = 1.0;
    params.burst = 2.0;
    serve::TokenBucketState state;
    const sim::Tick now = sim::secondsToTicks(1.5);

    EXPECT_TRUE(serve::bucketAdmit(state, params, now));
    EXPECT_DOUBLE_EQ(state.tokens, 0.5);
    // Second arrival at the same tick: no elapsed time, no refill.
    EXPECT_FALSE(serve::bucketAdmit(state, params, now));
    EXPECT_DOUBLE_EQ(state.tokens, 0.5);
}

TEST(ServeAdmission, NonPositiveRateDisablesLimiting)
{
    serve::TokenBucketParams params;
    params.ratePerSec = 0.0;
    params.burst = 0.0;
    serve::TokenBucketState state;

    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(serve::bucketAdmit(state, params, 0));
    EXPECT_DOUBLE_EQ(state.tokens, 0.0); // untouched
}

// ---------------------------------------------------------------
// Think wheel
// ---------------------------------------------------------------

TEST(ServeWheel, QuantizesUpAndDrainsAtTheRightTick)
{
    std::vector<serve::TenantSession> sessions(4);
    serve::ThinkWheel wheel(10, 8);
    std::vector<std::uint32_t> due;

    wheel.insert(sessions, 0, 0, 25); // ceil -> tick 3 (t = 30)
    EXPECT_EQ(wheel.scheduled(), 1u);

    wheel.drain(sessions, 10, due);
    wheel.drain(sessions, 20, due);
    EXPECT_TRUE(due.empty());
    wheel.drain(sessions, 30, due);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 0u);
    EXPECT_EQ(wheel.scheduled(), 0u);
    EXPECT_EQ(sessions[0].wheelNext, serve::kNoSession);
}

TEST(ServeWheel, PastWakesLandOnTheNextTick)
{
    std::vector<serve::TenantSession> sessions(2);
    serve::ThinkWheel wheel(10, 8);
    std::vector<std::uint32_t> due;

    wheel.insert(sessions, 1, 57, 40); // wake in the past
    wheel.drain(sessions, 60, due);    // next boundary after 57
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 1u);
}

TEST(ServeWheel, WakesBeyondTheHorizonClampToIt)
{
    std::vector<serve::TenantSession> sessions(2);
    serve::ThinkWheel wheel(10, 8); // horizon = 80
    std::vector<std::uint32_t> due;

    wheel.insert(sessions, 0, 0, 1000000);
    for (sim::Tick t = 10; t < 80; t += 10) {
        wheel.drain(sessions, t, due);
        EXPECT_TRUE(due.empty()) << "woke early at " << t;
    }
    wheel.drain(sessions, 80, due);
    ASSERT_EQ(due.size(), 1u);
}

TEST(ServeWheel, SlotDrainsInInsertionOrder)
{
    std::vector<serve::TenantSession> sessions(10);
    serve::ThinkWheel wheel(10, 8);
    std::vector<std::uint32_t> due;

    wheel.insert(sessions, 5, 0, 20);
    wheel.insert(sessions, 2, 0, 20);
    wheel.insert(sessions, 9, 0, 20);
    EXPECT_EQ(wheel.scheduled(), 3u);
    wheel.drain(sessions, 20, due);
    ASSERT_EQ(due.size(), 3u);
    EXPECT_EQ(due[0], 5u);
    EXPECT_EQ(due[1], 2u);
    EXPECT_EQ(due[2], 9u);
}

// ---------------------------------------------------------------
// SLO sliding window
// ---------------------------------------------------------------

/** The exact reference: SampleSet's interpolation formula over an
 *  explicitly sorted copy. */
double
referenceQuantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(ServeSloWindow, MatchesExactReferenceBeforeWrap)
{
    serve::SloWindow window(256);
    sim::Rng rng(7);
    std::vector<double> samples;
    for (int i = 0; i < 200; ++i) {
        const double ms = rng.uniform(0.1, 50.0);
        samples.push_back(ms);
        window.record(ms);
    }
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(window.quantile(q),
                         referenceQuantile(samples, q))
            << "q = " << q;
}

TEST(ServeSloWindow, AgreesWithSampleSetQuantiles)
{
    // Both select with the same formula, so on the same samples they
    // agree to the bit: a window part filled with distinct latencies,
    // and one part filled with heavy duplicates (latencies quantized to
    // a few levels, so order statistics tie with their neighbours).
    for (int levels : {0, 4}) {
        serve::SloWindow window(512);
        stats::SampleSet set(512);
        sim::Rng rng(11);
        for (int i = 0; i < 400; ++i) {
            const double ms = levels == 0
                ? rng.exponential(8.0)
                : 2.5 * static_cast<double>(rng.uniformInt(
                      static_cast<std::uint64_t>(levels)));
            window.record(ms);
            set.add(ms);
        }
        ASSERT_EQ(window.size(), 400u);
        for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
            EXPECT_EQ(window.quantile(q), set.quantile(q))
                << "levels=" << levels << " q=" << q;
        double p50 = -1.0;
        double p99 = -1.0;
        window.quantiles(p50, p99);
        EXPECT_EQ(p50, set.quantile(0.5)) << "levels=" << levels;
        EXPECT_EQ(p99, set.p99()) << "levels=" << levels;
    }
}

TEST(ServeSloWindow, SlidesOverTheLastWSamples)
{
    serve::SloWindow window(64);
    std::vector<double> all;
    sim::Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double ms = rng.uniform(0.0, 100.0);
        all.push_back(ms);
        window.record(ms);
    }
    EXPECT_EQ(window.size(), 64u);
    EXPECT_EQ(window.totalRecorded(), 1000u);
    const std::vector<double> tail(all.end() - 64, all.end());
    for (double q : {0.5, 0.99})
        EXPECT_DOUBLE_EQ(window.quantile(q),
                         referenceQuantile(tail, q));
}

TEST(ServeSloWindow, EmptyAndClearedWindowsReportZero)
{
    serve::SloWindow window(16);
    EXPECT_DOUBLE_EQ(window.quantile(0.99), 0.0);
    window.record(5.0);
    EXPECT_DOUBLE_EQ(window.quantile(0.5), 5.0);
    window.clear();
    EXPECT_EQ(window.size(), 0u);
    double p50 = -1.0, p99 = -1.0;
    window.quantiles(p50, p99);
    EXPECT_DOUBLE_EQ(p50, 0.0);
    EXPECT_DOUBLE_EQ(p99, 0.0);
}

// ---------------------------------------------------------------
// Arrival-rate modulation
// ---------------------------------------------------------------

TEST(ServeModulation, DiurnalSinusoidPeaksAndTroughs)
{
    workload::RateModulationParams params;
    params.diurnalPeriodSec = 10.0;
    params.diurnalAmplitude = 0.5;
    const workload::RateModulation mod(params);

    EXPECT_NEAR(mod.factorAt(0), 1.0, 1e-9);
    EXPECT_NEAR(mod.factorAt(sim::secondsToTicks(2.5)), 1.5, 1e-9);
    EXPECT_NEAR(mod.factorAt(sim::secondsToTicks(7.5)), 0.5, 1e-9);
    EXPECT_NEAR(mod.factorAt(sim::secondsToTicks(10.0)), 1.0, 1e-6);
}

TEST(ServeModulation, PhaseShiftsTheCycle)
{
    workload::RateModulationParams params;
    params.diurnalPeriodSec = 10.0;
    params.diurnalAmplitude = 0.25;
    params.diurnalPhase = 0.25; // start at the peak
    const workload::RateModulation mod(params);
    EXPECT_NEAR(mod.factorAt(0), 1.25, 1e-9);
}

TEST(ServeModulation, BurstWindowsMultiply)
{
    workload::RateModulationParams params;
    params.burstPeriodSec = 5.0;
    params.burstDurationSec = 1.0;
    params.burstMultiplier = 3.0;
    const workload::RateModulation mod(params);

    EXPECT_TRUE(mod.inBurst(sim::secondsToTicks(0.5)));
    EXPECT_FALSE(mod.inBurst(sim::secondsToTicks(2.0)));
    EXPECT_TRUE(mod.inBurst(sim::secondsToTicks(5.5)));
    EXPECT_NEAR(mod.factorAt(sim::secondsToTicks(0.5)), 3.0, 1e-9);
    EXPECT_NEAR(mod.factorAt(sim::secondsToTicks(2.0)), 1.0, 1e-9);
}

// ---------------------------------------------------------------
// Registry delta snapshots
// ---------------------------------------------------------------

double
sampleValue(const std::vector<telemetry::MetricSample> &rows,
            const std::string &name)
{
    for (const auto &row : rows)
        if (row.name == name)
            return row.value;
    ADD_FAILURE() << "metric " << name << " missing";
    return -1.0;
}

TEST(ServeSnapshotDelta, CountersReportIncreaseSinceLastDelta)
{
    telemetry::Registry registry;
    telemetry::Counter &ctr = registry.counter("requests");
    ctr.inc(5);
    // First delta call reports the cumulative value.
    EXPECT_DOUBLE_EQ(sampleValue(registry.snapshotDelta(), "requests"),
                     5.0);
    ctr.inc(3);
    EXPECT_DOUBLE_EQ(sampleValue(registry.snapshotDelta(), "requests"),
                     3.0);
    // No activity -> zero delta; cumulative snapshot unaffected.
    EXPECT_DOUBLE_EQ(sampleValue(registry.snapshotDelta(), "requests"),
                     0.0);
    EXPECT_DOUBLE_EQ(sampleValue(registry.snapshot(), "requests"),
                     8.0);
}

TEST(ServeSnapshotDelta, CumulativeSnapshotDoesNotAdvanceBaselines)
{
    telemetry::Registry registry;
    telemetry::Counter &ctr = registry.counter("ops");
    ctr.inc(4);
    registry.snapshotDelta(); // baseline at 4
    ctr.inc(6);
    registry.snapshot(); // interleaved cumulative read
    registry.snapshot();
    EXPECT_DOUBLE_EQ(sampleValue(registry.snapshotDelta(), "ops"),
                     6.0);
}

TEST(ServeSnapshotDelta, HistogramsReportIntervalCountAndMean)
{
    telemetry::Registry registry;
    stats::Histogram &h =
        registry.histogram("lat", {1.0, 10.0, 100.0});
    h.add(2.0);
    h.add(4.0);
    auto rows = registry.snapshotDelta();
    EXPECT_DOUBLE_EQ(sampleValue(rows, "lat.count"), 2.0);
    EXPECT_DOUBLE_EQ(sampleValue(rows, "lat.mean"), 3.0);

    h.add(30.0);
    rows = registry.snapshotDelta();
    EXPECT_DOUBLE_EQ(sampleValue(rows, "lat.count"), 1.0);
    EXPECT_DOUBLE_EQ(sampleValue(rows, "lat.mean"), 30.0);
    // .max stays cumulative (cannot rewind a maximum in place).
    EXPECT_DOUBLE_EQ(sampleValue(rows, "lat.max"), 30.0);

    // Idle interval: zero count, zero mean (not NaN).
    rows = registry.snapshotDelta();
    EXPECT_DOUBLE_EQ(sampleValue(rows, "lat.count"), 0.0);
    EXPECT_DOUBLE_EQ(sampleValue(rows, "lat.mean"), 0.0);
}

TEST(ServeSnapshotDelta, GaugesStayPointInTime)
{
    telemetry::Registry registry;
    registry.setGauge("depth", 7.0);
    EXPECT_DOUBLE_EQ(sampleValue(registry.snapshotDelta(), "depth"),
                     7.0);
    EXPECT_DOUBLE_EQ(sampleValue(registry.snapshotDelta(), "depth"),
                     7.0);
}

// ---------------------------------------------------------------
// ServiceLoop end-to-end
// ---------------------------------------------------------------

core::SystemConfig
testSystem()
{
    return core::makeRaid0System(
        "SA2", disk::makeIntraDiskParallel(disk::barracudaEs750(), 2),
        2);
}

/** Small closed-loop scenario with admission wide open. */
serve::ServeParams
closedLoopParams()
{
    serve::ServeParams p;
    p.tenants = 100;
    p.openFraction = 0.0;
    p.thinkMs = 20.0;
    p.durationSeconds = 1.0;
    p.warmupSeconds = 0.25;
    p.snapshotPeriodMs = 250.0;
    p.admission.bucket.ratePerSec = 0.0; // bucket disabled
    p.admission.maxInFlight = 0;         // cap disabled
    p.spec.enabled = false;
    p.seed = 99;
    return p;
}

TEST(ServeLoop, ClosedLoopCompletesEveryAdmittedRequest)
{
    const serve::ServeResult r =
        serve::runService(testSystem(), closedLoopParams());

    EXPECT_GT(r.totals.arrivals, 0u);
    EXPECT_EQ(r.totals.arrivals, r.totals.admitted); // nothing denied
    EXPECT_EQ(r.totals.denied(), 0u);
    // Exactly-once: the drain completes every admitted request.
    EXPECT_EQ(r.totals.completions, r.totals.admitted);
    EXPECT_GT(r.p99Ms, 0.0);
    EXPECT_GE(r.simSeconds, 1.0);
    ASSERT_FALSE(r.snapshots.empty());
    for (std::size_t i = 1; i < r.snapshots.size(); ++i) {
        EXPECT_EQ(r.snapshots[i].index, r.snapshots[i - 1].index + 1);
        EXPECT_GT(r.snapshots[i].simSeconds,
                  r.snapshots[i - 1].simSeconds);
    }
    // The final row lands exactly at the configured duration.
    EXPECT_DOUBLE_EQ(r.snapshots.back().simSeconds, 1.0);
}

TEST(ServeLoop, StarvedBucketDeniesEverything)
{
    serve::ServeParams p = closedLoopParams();
    p.admission.bucket.ratePerSec = 1e-9;
    p.admission.bucket.burst = 0.5; // never reaches one token

    const serve::ServeResult r = serve::runService(testSystem(), p);
    EXPECT_GT(r.totals.arrivals, 0u);
    EXPECT_EQ(r.totals.admitted, 0u);
    EXPECT_EQ(r.totals.completions, 0u);
    EXPECT_EQ(r.totals.deniedBucket, r.totals.arrivals);
    EXPECT_DOUBLE_EQ(r.denyFraction, 1.0);
    EXPECT_FALSE(r.sloMet); // no completions: the SLO cannot be met
}

TEST(ServeLoop, InFlightCapShedsOverload)
{
    serve::ServeParams p = closedLoopParams();
    p.tenants = 400;
    p.thinkMs = 2.0; // far beyond the array's capacity
    p.admission.maxInFlight = 8;

    const serve::ServeResult r = serve::runService(testSystem(), p);
    EXPECT_GT(r.totals.deniedInFlight, 0u);
    EXPECT_EQ(r.totals.completions, r.totals.admitted);
    // The cap bounds the backlog: snapshots never exceed it.
    for (const serve::ServeSnapshot &s : r.snapshots)
        EXPECT_LE(s.inFlight, 8u);
}

TEST(ServeLoop, OpenLoopTenantsFireAndForget)
{
    serve::ServeParams p;
    p.tenants = 50;
    p.openFraction = 1.0;
    p.openRatePerSec = 20.0;
    p.durationSeconds = 1.0;
    p.warmupSeconds = 0.25;
    p.admission.bucket.ratePerSec = 0.0;
    p.admission.maxInFlight = 0;
    p.seed = 7;

    const serve::ServeResult r = serve::runService(testSystem(), p);
    EXPECT_GT(r.totals.arrivals, 0u);
    EXPECT_EQ(r.totals.completions, r.totals.admitted);
    // No closed-loop sessions: nothing arms speculative batches.
    EXPECT_EQ(r.totals.specArmed, 0u);
    EXPECT_EQ(r.staleCancels, 0u);
}

TEST(ServeLoop, DiurnalTroughServesFewerThanPeak)
{
    // Two identical open-loop runs phased half a cycle apart: the one
    // starting at the trough admits measurably fewer requests.
    serve::ServeParams p;
    p.tenants = 40;
    p.openFraction = 1.0;
    p.openRatePerSec = 25.0;
    p.durationSeconds = 1.0;
    p.warmupSeconds = 0.25;
    p.admission.bucket.ratePerSec = 0.0;
    p.modulation.diurnalPeriodSec = 4.0; // quarter cycle per run
    p.modulation.diurnalAmplitude = 0.8;
    p.seed = 21;

    p.modulation.diurnalPhase = 0.25; // peak-side half
    const serve::ServeResult peak =
        serve::runService(testSystem(), p);
    p.modulation.diurnalPhase = 0.75; // trough-side half
    const serve::ServeResult trough =
        serve::runService(testSystem(), p);
    EXPECT_GT(peak.totals.arrivals,
              trough.totals.arrivals + trough.totals.arrivals / 4);
}

// ---------------------------------------------------------------
// Speculative submission / cancellation under load
// ---------------------------------------------------------------

TEST(ServeSpecCancel, AccountingClosesExactlyUnderLoad)
{
    serve::ServeParams p;
    p.tenants = 200;
    p.openFraction = 0.0;
    p.thinkMs = 10.0;
    p.durationSeconds = 2.0;
    p.warmupSeconds = 0.5;
    p.admission.bucket.ratePerSec = 0.0;
    p.admission.maxInFlight = 0;
    p.spec.enabled = true;
    p.spec.batch = 4;
    p.spec.aheadMs = 3.0;
    p.spec.startProb = 1.0;   // every completion opens a phase
    p.spec.retractProb = 0.6; // retractions land mid-batch
    p.spec.maxOutstanding = 64;
    p.seed = 1234;

    const serve::ServeResult r = serve::runService(testSystem(), p);
    const serve::ServeTotals &t = r.totals;

    ASSERT_GT(t.specArmed, 0u);
    // Both cancel outcomes must actually occur under this load.
    EXPECT_GT(t.specCancelledLive, 0u);
    EXPECT_GT(t.specCancelledStale, 0u);

    // Every armed id is cancelled exactly once — live if the
    // submission had not fired, stale if it had (the generation tag
    // told them apart).
    EXPECT_EQ(t.specArmed,
              t.specCancelledLive + t.specCancelledStale);
    // Every fired submission either reached the array or was
    // suppressed by the outstanding cap / stop.
    EXPECT_EQ(t.specCancelledStale,
              t.specSubmitted + t.specSuppressed);
    // The kernel's stale-cancel count has no other source here.
    EXPECT_EQ(r.staleCancels, t.specCancelledStale);
    // Exactly-once completion, foreground and speculative alike.
    EXPECT_EQ(t.completions, t.admitted);
    EXPECT_EQ(t.specCompleted, t.specSubmitted);
}

TEST(ServeSpecCancel, DisabledSpecNeverTouchesTheCancelPath)
{
    serve::ServeParams p = closedLoopParams();
    p.spec.enabled = false;
    const serve::ServeResult r = serve::runService(testSystem(), p);
    EXPECT_EQ(r.totals.specArmed, 0u);
    EXPECT_EQ(r.totals.specSubmitted, 0u);
    EXPECT_EQ(r.eventsCancelled, 0u);
    EXPECT_EQ(r.staleCancels, 0u);
}

// ---------------------------------------------------------------
// Snapshot metric deltas through a real run
// ---------------------------------------------------------------

TEST(ServeLoop, CapturedMetricDeltasSumToRunTotals)
{
    serve::ServeParams p = closedLoopParams();
    p.captureMetricDeltas = true;

    const serve::ServeResult r = serve::runService(testSystem(), p);
    ASSERT_FALSE(r.snapshots.empty());
    double arrivals = 0.0;
    for (const serve::ServeSnapshot &s : r.snapshots) {
        ASSERT_FALSE(s.metricDelta.empty());
        arrivals += sampleValue(s.metricDelta, "serve.arrivals");
    }
    // Arrivals stop at the final snapshot (endTick), so the interval
    // deltas tile the run exactly.
    EXPECT_DOUBLE_EQ(arrivals,
                     static_cast<double>(r.totals.arrivals));
}

// ---------------------------------------------------------------
// Environment overrides
// ---------------------------------------------------------------

TEST(ServeEnv, OverridesApplyAndMalformedValuesAreIgnored)
{
    serve::ServeParams base;
    ::setenv("IDP_SERVE_TENANTS", "777", 1);
    ::setenv("IDP_SERVE_SLO_P99_MS", "42.5", 1);
    ::setenv("IDP_SERVE_SECONDS", "not-a-number", 1);
    const serve::ServeParams p = serve::applyServeEnv(base);
    ::unsetenv("IDP_SERVE_TENANTS");
    ::unsetenv("IDP_SERVE_SLO_P99_MS");
    ::unsetenv("IDP_SERVE_SECONDS");

    EXPECT_EQ(p.tenants, 777u);
    EXPECT_DOUBLE_EQ(p.slo.p99TargetMs, 42.5);
    EXPECT_DOUBLE_EQ(p.durationSeconds, base.durationSeconds);
}

TEST(ServeEnv, MaxInFlightBeyondTheFieldKeepsTheCap)
{
    serve::ServeParams base;
    ::setenv("IDP_SERVE_MAX_INFLIGHT", "1000", 1);
    EXPECT_EQ(serve::applyServeEnv(base).admission.maxInFlight, 1000u);
    // 2^32 would wrap to 0, which means "no cap".
    ::setenv("IDP_SERVE_MAX_INFLIGHT", "4294967296", 1);
    EXPECT_EQ(serve::applyServeEnv(base).admission.maxInFlight,
              base.admission.maxInFlight);
    ::unsetenv("IDP_SERVE_MAX_INFLIGHT");
}

// ---------------------------------------------------------------
// Determinism: golden serving snapshot + thread invariance
// ---------------------------------------------------------------

std::vector<serve::ServePoint>
goldenPoints()
{
    serve::ServeParams p;
    p.tenants = 1500;
    p.openFraction = 0.1;
    p.openRatePerSec = 2.0;
    p.thinkMs = 100.0;
    p.durationSeconds = 2.0;
    p.warmupSeconds = 0.5;
    p.snapshotPeriodMs = 250.0;
    p.modulation.diurnalPeriodSec = 2.0;
    p.modulation.diurnalAmplitude = 0.3;
    p.modulation.burstPeriodSec = 0.9;
    p.modulation.burstDurationSec = 0.2;
    p.modulation.burstMultiplier = 2.0;
    p.spec.enabled = true;
    p.spec.startProb = 0.5;
    p.spec.retractProb = 0.5;
    p.seed = 42;

    std::vector<serve::ServePoint> points;
    serve::ServePoint a;
    a.config = core::makeRaid0System("4x HC-SD",
                                     disk::barracudaEs750(), 4);
    a.params = p;
    points.push_back(a);

    serve::ServePoint b;
    b.config = core::makeRaid0System(
        "4x HC-SD-SA(4)@4200",
        disk::withRpm(
            disk::makeIntraDiskParallel(disk::barracudaEs750(), 4),
            4200),
        4);
    b.params = p;
    b.params.seed = 43;
    points.push_back(b);
    return points;
}

std::string
goldenServeCsv(unsigned threads)
{
    const std::vector<serve::ServeResult> runs =
        serve::runServePoints(goldenPoints(), threads);
    std::ostringstream os;
    serve::writeServeSnapshotsCsv(os, runs);
    return os.str();
}

TEST(ServeDeterminismGolden, SnapshotCsvMatchesGoldenFile)
{
    const std::string path = std::string(IDP_SOURCE_DIR) +
        "/tests/golden/determinism_serve.csv";
    const std::string measured = goldenServeCsv(1);

    if (std::getenv("IDP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream os(path);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << measured;
        GTEST_SKIP() << "golden file refreshed: " << path;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is) << "missing golden file " << path
                    << " — generate it with IDP_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << is.rdbuf();
    EXPECT_EQ(golden.str(), measured)
        << "serving snapshots drifted from the golden file.\nIf "
           "intentional, refresh with IDP_UPDATE_GOLDEN=1 and review "
           "the diff.";
}

TEST(ServeDeterminismGolden, SnapshotCsvIsThreadCountInvariant)
{
    // One worker versus eight: the sweep fans differently, the bytes
    // must not.
    EXPECT_EQ(goldenServeCsv(1), goldenServeCsv(8));
}

} // namespace
