/**
 * @file
 * Conservative-PDES battery: horizon derivation, horizon safety,
 * merge-order model, serial-step telemetry, bound admissibility, and
 * randomized stress runs byte-comparing full output against the
 * serial event loop at several worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bus/bus.hh"
#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "disk/drive_config.hh"
#include "exec/pdes.hh"
#include "geom/geometry.hh"
#include "power/governor.hh"
#include "sim/event_queue.hh"
#include "telemetry/telemetry.hh"
#include "verify/verify.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

/** RAII environment variable override. */
struct EnvGuard
{
    std::string name;
    EnvGuard(const char *n, const char *value) : name(n)
    {
        setenv(n, value, 1);
    }
    ~EnvGuard() { unsetenv(name.c_str()); }
};

// ---------------------------------------------------------------
// Horizon derivation: where no feedback path reads live drive state,
// the per-round horizon reduces to a per-config constant — unbounded
// for an open-loop fan-out, one sector's bus transfer with a bus.
// ---------------------------------------------------------------

core::SystemConfig
raid0NoBus(std::uint32_t disks)
{
    return core::makeRaid0System("pdes-raid0", disk::barracudaEs750(),
                                 disks);
}

core::SystemConfig
raid5WithBus(std::uint32_t disks)
{
    core::SystemConfig config;
    config.name = "pdes-raid5";
    config.array.layout = array::Layout::Raid5;
    config.array.disks = disks;
    config.array.drive = disk::barracudaEs750();
    config.array.useBus = true;
    return config;
}

/** Round telemetry of one 4-worker PdesRun of @p trace. */
struct RoundStats
{
    std::uint64_t rounds = 0;
    std::uint64_t serialSteps = 0;
    std::vector<std::uint64_t> widthHist;
};

RoundStats
runRounds(const array::ArrayParams &params, const workload::Trace &trace)
{
    exec::PdesRun prun(params, 4, telemetry::TraceOptions{});
    array::StorageArray arr(prun.coordSim(), params, nullptr, &prun);
    prun.setArray(&arr);
    for (const auto &req : trace)
        prun.coordSim().schedule(req.arrival,
                                 [&arr, req] { arr.submit(req); });
    prun.run();
    EXPECT_EQ(arr.stats().logicalCompletions, trace.size());

    RoundStats r;
    r.rounds = prun.rounds();
    r.serialSteps = prun.serialSteps();
    r.widthHist.assign(prun.horizonWidthHist(),
                       prun.horizonWidthHist() +
                           exec::PdesRun::kHorizonBuckets);
    return r;
}

TEST(PdesHorizon, OpenLoopFanOutIsOneUnboundedRound)
{
    // No bus and no RMW feedback: completions never influence any
    // future submission, so the whole run is one window.
    workload::SyntheticParams wp;
    wp.requests = 1000;
    const RoundStats r =
        runRounds(raid0NoBus(4).array, workload::generateSynthetic(wp));
    EXPECT_EQ(r.rounds, 1u);
    EXPECT_EQ(r.serialSteps, 0u);
    EXPECT_EQ(r.widthHist[exec::PdesRun::kHorizonBuckets - 1], 1u);
}

TEST(PdesHorizon, BusBoundsEveryRoundByOneSectorTransfer)
{
    const core::SystemConfig config = raid5WithBus(4);
    const sim::Tick transfer =
        bus::Bus::minTransferTicks(config.array.bus, geom::kSectorBytes);
    ASSERT_GT(transfer, 0u);
    std::size_t bucket = 0;
    for (sim::Tick w = transfer; w >>= 1;)
        ++bucket;

    workload::SyntheticParams wp;
    wp.requests = 1000;
    wp.meanInterArrivalMs = 2.0;
    const RoundStats r =
        runRounds(config.array, workload::generateSynthetic(wp));
    EXPECT_GT(r.rounds, 1u);
    EXPECT_EQ(r.serialSteps, 0u);
    EXPECT_EQ(r.widthHist[bucket], r.rounds);
}

// ---------------------------------------------------------------
// Horizon safety: a calendar can never be advanced past a pending
// (undelivered) event — the structural guard behind "the horizon
// never passes an unreceived cross-drive event".
// ---------------------------------------------------------------

TEST(PdesHorizonDeathTest, AdvancePastPendingEventPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::Simulator simul;
    simul.schedule(100, [] {});
    EXPECT_DEATH(simul.advanceTo(150),
                 "pending event behind the target");
}

TEST(PdesHorizon, RunBeforeIsExclusiveAndNeverFastForwards)
{
    sim::Simulator simul;
    int fired = 0;
    simul.schedule(100, [&] { ++fired; });
    simul.schedule(200, [&] { ++fired; });

    simul.runBefore(100); // exclusive: the event at 100 must not fire
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(simul.now(), 0u);
    EXPECT_EQ(simul.nextEventTime(), 100u);

    simul.runBefore(101);
    EXPECT_EQ(fired, 1);
    // The clock sits on the last fired event, not the horizon — so a
    // later cross-drive delivery at any tick in [100, 200) can still
    // be accepted.
    EXPECT_EQ(simul.now(), 100u);

    simul.advanceTo(150); // legal: next pending event is at 200
    EXPECT_EQ(simul.now(), 150u);

    simul.runBefore(sim::kTickNever);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(simul.now(), 200u);
    EXPECT_EQ(simul.nextEventTime(), sim::kTickNever);
}

TEST(PdesHorizon, CancelledEventsDoNotBlockTheHorizon)
{
    sim::Simulator simul;
    int fired = 0;
    const sim::EventId id = simul.schedule(100, [&] { ++fired; });
    simul.schedule(300, [&] { ++fired; });
    simul.cancel(id);
    // The cancelled top must be discarded lazily, not fired, and must
    // not trip the advance guard either.
    EXPECT_EQ(simul.nextEventTime(), 300u);
    simul.advanceTo(200);
    EXPECT_EQ(simul.now(), 200u);
    simul.runBefore(301);
    EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------
// Merge order at the horizon: (tick, drive id, sequence).
// ---------------------------------------------------------------

TEST(PdesMergeOrder, KeyIsLexicographicTickDriveSeq)
{
    using K = exec::PdesCompletionKey;
    std::vector<K> keys = {
        {20, 0, 0}, {10, 2, 0}, {10, 0, 1}, {10, 1, 0},
        {10, 0, 0}, {20, 1, 3}, {10, 2, 1},
    };
    std::sort(keys.begin(), keys.end(), exec::pdesMergeBefore);

    const std::vector<K> want = {
        {10, 0, 0}, {10, 0, 1}, {10, 1, 0}, {10, 2, 0},
        {10, 2, 1}, {20, 0, 0}, {20, 1, 3},
    };
    ASSERT_EQ(keys.size(), want.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(keys[i].tick, want[i].tick) << "slot " << i;
        EXPECT_EQ(keys[i].drive, want[i].drive) << "slot " << i;
        EXPECT_EQ(keys[i].seq, want[i].seq) << "slot " << i;
    }
    // Strict: equal keys compare false both ways.
    EXPECT_FALSE(exec::pdesMergeBefore({5, 1, 2}, {5, 1, 2}));
}

// ---------------------------------------------------------------
// Stress: byte-identical output, serial vs PDES at several worker
// counts, for both the infinite-lookahead (RAID-0) and the
// finite-window (RAID-5 + bus) regimes.
// ---------------------------------------------------------------

std::string
runToCsv(const workload::Trace &trace, core::SystemConfig config,
         int pdes_workers)
{
    config.pdesWorkers = pdes_workers;
    const std::vector<core::RunResult> results = {
        core::runTrace(trace, config)};
    std::ostringstream os;
    core::writeSummaryCsv(os, results);
    core::writeCdfCsv(os, results);
    core::writeRotPdfCsv(os, results);
    return os.str();
}

TEST(PdesStress, Raid0TenThousandRequestsByteIdentical)
{
    workload::SyntheticParams wp;
    wp.requests = 10000;
    wp.meanInterArrivalMs = 1.0;
    wp.seed = 0xD15CULL;
    const auto trace = workload::generateSynthetic(wp);
    const core::SystemConfig config = raid0NoBus(4);

    const std::string serial = runToCsv(trace, config, 0);
    EXPECT_EQ(serial, runToCsv(trace, config, 1));
    EXPECT_EQ(serial, runToCsv(trace, config, 4));
    EXPECT_EQ(serial, runToCsv(trace, config, 8));
}

TEST(PdesStress, Raid5BusFiniteWindowByteIdentical)
{
    workload::SyntheticParams wp;
    wp.requests = 2000;
    wp.meanInterArrivalMs = 2.0;
    wp.seed = 0x5A1DULL;
    const auto trace = workload::generateSynthetic(wp);
    const core::SystemConfig config = raid5WithBus(4);

    const std::string serial = runToCsv(trace, config, 0);
    EXPECT_EQ(serial, runToCsv(trace, config, 1));
    EXPECT_EQ(serial, runToCsv(trace, config, 4));
}

TEST(PdesStress, EnvironmentOptInMatchesSerial)
{
    workload::SyntheticParams wp;
    wp.requests = 3000;
    const auto trace = workload::generateSynthetic(wp);
    const core::SystemConfig config = raid0NoBus(4);

    // pdesWorkers = -1 follows the environment in both runs.
    const std::string serial = runToCsv(trace, config, -1);
    std::string pdes;
    {
        EnvGuard on("IDP_PDES", "1");
        EnvGuard workers("IDP_PDES_WORKERS", "3");
        pdes = runToCsv(trace, config, -1);
    }
    EXPECT_EQ(serial, pdes);
}

// ---------------------------------------------------------------
// Exactness with 8 workers (satellite: thread-local scopes must
// install per worker; counters and checker accounting stay exact).
// ---------------------------------------------------------------

TEST(PdesExactness, CheckerAccountingIsExactAcrossWorkerCounts)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    workload::SyntheticParams wp;
    wp.requests = 4000;
    wp.meanInterArrivalMs = 1.0;
    const auto trace = workload::generateSynthetic(wp);
    const core::SystemConfig config = raid0NoBus(4);

    // The checker's observation count is a hook-invocation total fed
    // from every worker thread: any lost update at 8 workers would
    // break equality with the 1-worker run of the same schedule.
    std::uint64_t observed[2] = {0, 0};
    const int workers[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        verify::InvariantChecker checker(verify::FailMode::Record);
        verify::VerifyScope scope(&checker);
        core::SystemConfig c = config;
        c.pdesWorkers = workers[i];
        core::runTrace(trace, c);
        checker.finalize();
        EXPECT_TRUE(checker.violations().empty())
            << checker.violations().front();
        observed[i] = checker.observations();
    }
    EXPECT_GT(observed[0], trace.size());
    EXPECT_EQ(observed[0], observed[1]);
}

// ---------------------------------------------------------------
// Live-state horizons: the zero-latency feedback configurations
// (RAID-1 replica pricing, busless RAID-5 RMW) must reproduce the
// serial bytes at several worker counts.
// ---------------------------------------------------------------

core::SystemConfig
raid1Positioning(std::uint32_t disks)
{
    core::SystemConfig config;
    config.name = "pdes-raid1";
    config.array.layout = array::Layout::Raid1;
    config.array.disks = disks;
    config.array.drive = disk::barracudaEs750();
    return config;
}

TEST(PdesDynamic, Raid1PositioningByteIdenticalAcrossWorkers)
{
    workload::SyntheticParams wp;
    wp.requests = 4000;
    wp.meanInterArrivalMs = 1.0;
    wp.seed = 0x1A1DULL;
    const auto trace = workload::generateSynthetic(wp);
    const core::SystemConfig config = raid1Positioning(4);

    const std::string serial = runToCsv(trace, config, 0);
    EXPECT_EQ(serial, runToCsv(trace, config, 1));
    EXPECT_EQ(serial, runToCsv(trace, config, 4));
    EXPECT_EQ(serial, runToCsv(trace, config, 8));
}

TEST(PdesDynamic, BuslessRaid5ByteIdenticalAcrossWorkers)
{
    workload::SyntheticParams wp;
    wp.requests = 2000;
    wp.meanInterArrivalMs = 2.0;
    wp.seed = 0x0B05ULL;
    const auto trace = workload::generateSynthetic(wp);
    core::SystemConfig config = raid5WithBus(4);
    config.array.useBus = false;

    const std::string serial = runToCsv(trace, config, 0);
    EXPECT_EQ(serial, runToCsv(trace, config, 1));
    EXPECT_EQ(serial, runToCsv(trace, config, 4));
    EXPECT_EQ(serial, runToCsv(trace, config, 8));
}

TEST(PdesDynamic, SerialStepAndHorizonTelemetry)
{
    // RAID-1 replica pricing reads live drive state, so every
    // dispatch tick must execute as a serial step — the counters and
    // the width histogram have to reflect that split exactly.
    workload::SyntheticParams wp;
    wp.requests = 500;
    wp.meanInterArrivalMs = 1.0;
    const RoundStats r = runRounds(raid1Positioning(4).array,
                                   workload::generateSynthetic(wp));

    EXPECT_GT(r.serialSteps, 0u);
    EXPECT_GE(r.rounds, r.serialSteps);
    std::uint64_t windowed = 0;
    for (const std::uint64_t n : r.widthHist)
        windowed += n;
    EXPECT_EQ(windowed + r.serialSteps, r.rounds);
}

// ---------------------------------------------------------------
// Bound admissibility, pinned through the invariant checker: every
// pure-seek lower bound (RAID-1 replica pricing) and every completion
// floor (dynamic horizons) is compared against the exact outcome at
// the moment it resolves. Randomized across seeds, including runs
// whose spindle speed changes mid-flight under the energy governor.
// ---------------------------------------------------------------

TEST(PdesAdmissibility, PositioningBoundsHoldUnderRandomRaid1Load)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    for (const std::uint64_t seed : {0xA11CEULL, 0xB0BULL, 0xCAB1EULL}) {
        workload::SyntheticParams wp;
        wp.requests = 2500;
        wp.meanInterArrivalMs = 1.0;
        wp.seed = seed;
        const auto trace = workload::generateSynthetic(wp);

        for (const int workers : {0, 4}) {
            verify::InvariantChecker checker(verify::FailMode::Record);
            verify::VerifyScope scope(&checker);
            core::SystemConfig config = raid1Positioning(4);
            config.pdesWorkers = workers;
            core::runTrace(trace, config);
            checker.finalize();
            EXPECT_TRUE(checker.violations().empty())
                << "seed " << seed << " workers " << workers << ": "
                << checker.violations().front();
        }
    }
}

TEST(PdesAdmissibility, CompletionFloorsHoldUnderTimeVaryingRpm)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    // A governed run shifts spindle speed mid-flight; the service
    // floors priced before and across the shift must stay at or below
    // every actual completion, or the checker trips.
    power::GovernorParams g;
    g.enabled = true;
    g.windowMs = 50.0;
    g.sloP99Ms = 80.0;
    g.busyHigh = 0.5;
    g.busyLow = 0.2;
    g.minDwellMs = 200.0;
    g.rpmLevels = {7200, 5200, 4200};

    for (const std::uint64_t seed : {0x5EEDULL, 0xF00DULL}) {
        workload::SyntheticParams wp;
        wp.requests = 1500;
        wp.meanInterArrivalMs = 8.0; // lulls: the governor downshifts
        wp.seed = seed;
        const auto trace = workload::generateSynthetic(wp);

        for (const int workers : {0, 4}) {
            verify::InvariantChecker checker(verify::FailMode::Record);
            verify::VerifyScope scope(&checker);
            core::SystemConfig config = core::makeRaid0System(
                "governed-bounds",
                disk::makeIntraDiskParallel(disk::barracudaEs750(), 2),
                4);
            config.array.governor = g;
            config.pdesWorkers = workers;
            core::runTrace(trace, config);
            checker.finalize();
            EXPECT_TRUE(checker.violations().empty())
                << "seed " << seed << " workers " << workers << ": "
                << checker.violations().front();
            EXPECT_GT(checker.observations(), trace.size());
        }
    }
}

// ---------------------------------------------------------------
// Exact in-flight floors: a conventional mirror prices each access's
// completion at dispatch (media retries only add time), an SA(4)
// mirror with one data channel keeps the phase floors. Both must
// reproduce the serial bytes and stay checker-clean.
// ---------------------------------------------------------------

/** Serial CSV, then checker-clean PDES runs at 1 and 4 workers that
 *  must match it byte for byte. */
void
expectCleanPdesMatchesSerial(const workload::Trace &trace,
                             const core::SystemConfig &config)
{
    const std::string serial = runToCsv(trace, config, 0);
    for (const int workers : {1, 4}) {
        verify::InvariantChecker checker(verify::FailMode::Record);
        std::string pdes;
        {
            verify::VerifyScope scope(&checker);
            pdes = runToCsv(trace, config, workers);
        }
        checker.finalize();
        EXPECT_EQ(serial, pdes) << "workers " << workers;
        EXPECT_TRUE(checker.violations().empty())
            << "workers " << workers << ": "
            << checker.violations().front();
        if (verify::kCompiledIn) {
            EXPECT_GT(checker.observations(), trace.size());
        }
    }
}

TEST(PdesExactFloor, Raid1MediaRetriesMatchSerial)
{
    workload::SyntheticParams wp;
    wp.requests = 3000;
    wp.meanInterArrivalMs = 1.0;
    wp.seed = 0x4E7AULL;
    const auto trace = workload::generateSynthetic(wp);
    core::SystemConfig config = raid1Positioning(4);
    config.array.drive.mediaRetryRate = 0.1;

    core::SystemConfig serial = config;
    serial.pdesWorkers = 0;
    EXPECT_GT(core::runTrace(trace, serial).mediaRetries, 0u);
    expectCleanPdesMatchesSerial(trace, config);
}

TEST(PdesExactFloor, Sa4MirrorMatchesSerialAtBothChannelBudgets)
{
    // One shared channel (contention: phase floors) and a channel
    // per arm (several exact floors in flight per drive).
    workload::SyntheticParams wp;
    wp.requests = 3000;
    wp.meanInterArrivalMs = 0.5;
    wp.seed = 0xC4A7ULL;
    const auto trace = workload::generateSynthetic(wp);
    for (const std::uint32_t channels : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << channels << " channels");
        core::SystemConfig config = raid1Positioning(4);
        config.array.drive =
            disk::makeIntraDiskParallel(disk::barracudaEs750(), 4);
        config.array.drive.maxConcurrentTransfers = channels;

        if (channels == 1 && telemetry::kCompiledIn) {
            // Four arms share one data channel: transfers collide.
            telemetry::TraceOptions topts;
            topts.enabled = true;
            core::SystemConfig serial = config;
            serial.pdesWorkers = 0;
            double blocks = 0.0;
            for (const auto &m :
                 core::runTrace(trace, serial, topts).metrics)
                if (m.name == "disk.channel_blocks")
                    blocks = m.value;
            EXPECT_GT(blocks, 0.0);
        }
        expectCleanPdesMatchesSerial(trace, config);
    }
}

TEST(PdesExactness, ModuleCountersExactWithEightWorkers)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "telemetry compiled out";
    workload::SyntheticParams wp;
    wp.requests = 4000;
    wp.meanInterArrivalMs = 1.0;
    const auto trace = workload::generateSynthetic(wp);

    telemetry::TraceOptions topts;
    topts.enabled = true;

    auto metricsAt = [&](int pdes_workers) {
        core::SystemConfig c = raid0NoBus(4);
        c.pdesWorkers = pdes_workers;
        return core::runTrace(trace, c, topts).metrics;
    };
    const auto serial = metricsAt(0);
    const auto pdes8 = metricsAt(8);

    // Module counters (disk.*, sched.*, array.*, ...) must agree
    // exactly between the serial path and 8 concurrent workers — a
    // racy-approximate counter would drift here. Kernel-internal
    // sim.* gauges intentionally differ (per-calendar aggregation).
    std::size_t compared = 0;
    for (const auto &m : serial) {
        if (m.name.rfind("sim.", 0) == 0)
            continue;
        bool found = false;
        for (const auto &p : pdes8) {
            if (p.name != m.name)
                continue;
            EXPECT_DOUBLE_EQ(p.value, m.value) << m.name;
            found = true;
            ++compared;
            break;
        }
        EXPECT_TRUE(found) << "metric missing under PDES: " << m.name;
    }
    EXPECT_GT(compared, 5u);

    // And the merged trace must carry every span exactly once.
    core::SystemConfig c = raid0NoBus(4);
    c.pdesWorkers = 8;
    const auto serial_run = core::runTrace(trace, raid0NoBus(4), topts);
    const auto pdes_run = core::runTrace(trace, c, topts);
    ASSERT_NE(serial_run.trace, nullptr);
    ASSERT_NE(pdes_run.trace, nullptr);
    for (std::size_t k = 0; k < serial_run.trace->phases.size(); ++k) {
        EXPECT_EQ(pdes_run.trace->phases[k].count,
                  serial_run.trace->phases[k].count);
        EXPECT_EQ(pdes_run.trace->phases[k].ticks,
                  serial_run.trace->phases[k].ticks);
    }
}

} // namespace
