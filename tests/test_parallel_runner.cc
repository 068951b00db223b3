/**
 * @file
 * Determinism-regression harness for the parallel sweep engine.
 *
 * The engine's contract is that thread count is unobservable in the
 * results: the same sweep at 1, 2 and 8 threads must produce
 * bit-identical histograms, power breakdowns and CSV bytes, because
 * every point draws randomness only from its own (base seed, index)
 * stream and results land in index-ordered slots. These tests pin
 * that contract, plus the engine's edge cases: exception propagation,
 * empty sweeps, more threads than points, and pool reuse.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "exec/sim_sweep.hh"
#include "exec/sweep_runner.hh"
#include "exec/thread_pool.hh"
#include "sim/rng.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

// ---------------------------------------------------------------
// Stream-split RNG API
// ---------------------------------------------------------------

TEST(StreamSeed, IsAPureFunctionOfBaseAndIndex)
{
    EXPECT_EQ(sim::streamSeed(42, 7), sim::streamSeed(42, 7));
    EXPECT_NE(sim::streamSeed(42, 7), sim::streamSeed(42, 8));
    EXPECT_NE(sim::streamSeed(42, 7), sim::streamSeed(43, 7));
    // Sequential indices must not collide with sequential bases.
    EXPECT_NE(sim::streamSeed(42, 7), sim::streamSeed(7, 42));
}

TEST(StreamSeed, ForStreamMatchesManualSeeding)
{
    sim::Rng a = sim::Rng::forStream(123, 4);
    sim::Rng b(sim::streamSeed(123, 4));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(StreamSeed, NeighbouringStreamsDecorrelate)
{
    // Crude independence check: agreement frequency of the low bit
    // across neighbouring streams should be near 1/2.
    sim::Rng a = sim::Rng::forStream(0, 0);
    sim::Rng b = sim::Rng::forStream(0, 1);
    int agree = 0;
    const int n = 4096;
    for (int i = 0; i < n; ++i)
        agree += (a.next() & 1) == (b.next() & 1);
    EXPECT_GT(agree, n / 2 - 200);
    EXPECT_LT(agree, n / 2 + 200);
}

// ---------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    exec::ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, IsReusableAfterWait)
{
    exec::ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&ran] { ++ran; });
        pool.wait();
        EXPECT_EQ(ran.load(), (batch + 1) * 50);
    }
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately)
{
    exec::ThreadPool pool(3);
    pool.wait();
    SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        exec::ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&ran] { ++ran; });
        // No wait(): destruction must still run everything.
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, TasksCanSubmitMoreTasks)
{
    exec::ThreadPool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &ran] {
            ++ran;
            pool.submit([&ran] { ++ran; });
        });
    }
    pool.wait();
    EXPECT_EQ(ran.load(), 16);
}

// ---------------------------------------------------------------
// SweepRunner semantics
// ---------------------------------------------------------------

TEST(SweepRunner, ResultsLandInIndexOrder)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        exec::SweepRunner runner(threads);
        const auto out = runner.run(
            37, [](const exec::SweepPoint &p) { return p.index * 3; });
        ASSERT_EQ(out.size(), 37u);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * 3);
    }
}

TEST(SweepRunner, EmptySweepReturnsEmpty)
{
    for (unsigned threads : {1u, 8u}) {
        exec::SweepRunner runner(threads);
        const auto out = runner.run(
            0, [](const exec::SweepPoint &) { return 1; });
        EXPECT_TRUE(out.empty());
    }
}

TEST(SweepRunner, MoreThreadsThanPoints)
{
    exec::SweepRunner runner(8);
    const auto out = runner.run(
        3, [](const exec::SweepPoint &p) { return p.seed; });
    ASSERT_EQ(out.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(out[i], sim::streamSeed(exec::kDefaultSweepSeed, i));
}

TEST(SweepRunner, PointSeedsAreThreadCountInvariant)
{
    exec::SweepRunner serial(1, 99);
    exec::SweepRunner wide(8, 99);
    const auto point_seed = [](const exec::SweepPoint &p) {
        return p.seed;
    };
    EXPECT_EQ(serial.run(16, point_seed), wide.run(16, point_seed));
}

TEST(SweepRunner, MapPassesItemAndPoint)
{
    const std::vector<int> items = {5, 7, 9};
    exec::SweepRunner runner(2);
    const auto out = runner.map(
        items, [](int item, const exec::SweepPoint &p) {
            return item * 100 + static_cast<int>(p.index);
        });
    EXPECT_EQ(out, (std::vector<int>{500, 701, 902}));
}

TEST(SweepRunner, PropagatesLowestIndexException)
{
    for (unsigned threads : {1u, 4u}) {
        exec::SweepRunner runner(threads);
        try {
            runner.run(10, [](const exec::SweepPoint &p) -> int {
                if (p.index == 3 || p.index == 7)
                    throw std::runtime_error(
                        "point " + std::to_string(p.index));
                return 0;
            });
            FAIL() << "sweep should have thrown";
        } catch (const std::runtime_error &e) {
            // Deterministic choice: the lowest failing index wins,
            // regardless of which thread finished first.
            EXPECT_STREQ(e.what(), "point 3");
        }
    }
}

TEST(SweepRunner, SurvivesExceptionAndRunsAgain)
{
    exec::SweepRunner runner(4);
    EXPECT_THROW(runner.run(5,
                            [](const exec::SweepPoint &) -> int {
                                throw std::runtime_error("boom");
                            }),
                 std::runtime_error);
    const auto out = runner.run(
        5, [](const exec::SweepPoint &p) { return p.index; });
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[4], 4u);
}

TEST(SweepRunner, HonoursIdpThreadsEnv)
{
    ASSERT_EQ(setenv("IDP_THREADS", "3", 1), 0);
    EXPECT_EQ(exec::configuredThreads(), 3u);
    EXPECT_EQ(exec::SweepRunner().threads(), 3u);
    ASSERT_EQ(setenv("IDP_THREADS", "1", 1), 0);
    EXPECT_EQ(exec::configuredThreads(), 1u);
    const std::string ceiling = std::to_string(exec::kMaxThreads);
    ASSERT_EQ(setenv("IDP_THREADS", ceiling.c_str(), 1), 0);
    EXPECT_EQ(exec::configuredThreads(),
              static_cast<unsigned>(exec::kMaxThreads));
    // Values that would wrap when narrowed to unsigned (2^32 -> 0,
    // 2^32 + 1 -> 1) or that exceed the ceiling are malformed. Only
    // configuredThreads() is called: no thread is started.
    const std::string over = std::to_string(exec::kMaxThreads + 1);
    for (const char *v : {"4294967296", "4294967297", over.c_str()}) {
        ASSERT_EQ(setenv("IDP_THREADS", v, 1), 0);
        EXPECT_EQ(exec::configuredThreads(),
                  exec::ThreadPool::hardwareThreads())
            << "IDP_THREADS=" << v;
    }
    ASSERT_EQ(unsetenv("IDP_THREADS"), 0);
    EXPECT_EQ(exec::configuredThreads(),
              exec::ThreadPool::hardwareThreads());
}

// ---------------------------------------------------------------
// Bit-identical simulation sweeps across thread counts
// ---------------------------------------------------------------

std::vector<core::RunResult>
runMiniSweep(unsigned threads)
{
    // A realistic mini-sweep: each point generates its own workload
    // from its private RNG stream (seed AND sampled parameters) and
    // simulates a different drive configuration.
    exec::SweepRunner runner(threads, /*base_seed=*/0xD15C);
    return runner.run(6, [](const exec::SweepPoint &point) {
        sim::Rng rng = point.rng();
        workload::SyntheticParams wp;
        wp.requests = 1500;
        wp.seed = point.seed;
        wp.meanInterArrivalMs = rng.uniform(2.0, 10.0);
        wp.readFraction = rng.uniform(0.4, 0.8);

        const std::uint32_t actuators = 1u << (point.index % 3);
        disk::DriveSpec drive = disk::barracudaEs750();
        if (actuators > 1)
            drive = disk::makeIntraDiskParallel(drive, actuators);
        const core::SystemConfig config = core::makeRaid0System(
            "SA(" + std::to_string(actuators) + ")#" +
                std::to_string(point.index),
            drive, 1 + static_cast<std::uint32_t>(point.index % 2));
        return core::runTrace(workload::generateSynthetic(wp), config);
    });
}

void
expectBitIdentical(const std::vector<core::RunResult> &a,
                   const std::vector<core::RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("sweep point " + std::to_string(i));
        EXPECT_EQ(a[i].system, b[i].system);
        EXPECT_EQ(a[i].requests, b[i].requests);
        EXPECT_EQ(a[i].completions, b[i].completions);

        // Histograms: every bucket count, exactly.
        ASSERT_EQ(a[i].responseHist.buckets(),
                  b[i].responseHist.buckets());
        for (std::size_t bk = 0; bk < a[i].responseHist.buckets();
             ++bk)
            EXPECT_EQ(a[i].responseHist.count(bk),
                      b[i].responseHist.count(bk));
        ASSERT_EQ(a[i].rotHist.buckets(), b[i].rotHist.buckets());
        for (std::size_t bk = 0; bk < a[i].rotHist.buckets(); ++bk)
            EXPECT_EQ(a[i].rotHist.count(bk), b[i].rotHist.count(bk));

        // Scalar stats: bit-exact doubles, not approximate.
        EXPECT_EQ(a[i].meanResponseMs, b[i].meanResponseMs);
        EXPECT_EQ(a[i].p90ResponseMs, b[i].p90ResponseMs);
        EXPECT_EQ(a[i].p99ResponseMs, b[i].p99ResponseMs);
        EXPECT_EQ(a[i].meanRotMs, b[i].meanRotMs);
        EXPECT_EQ(a[i].wallSeconds, b[i].wallSeconds);

        // Power breakdown: per-mode energies, bit-exact.
        for (std::size_t m = 0; m < stats::kNumDiskModes; ++m)
            EXPECT_EQ(a[i].power.energyJ[m], b[i].power.energyJ[m]);
        EXPECT_EQ(a[i].power.totalEnergyJ, b[i].power.totalEnergyJ);
        EXPECT_EQ(a[i].cacheHits, b[i].cacheHits);
        EXPECT_EQ(a[i].mediaAccesses, b[i].mediaAccesses);
        EXPECT_EQ(a[i].mediaRetries, b[i].mediaRetries);
    }
}

std::string
csvBytes(const std::vector<core::RunResult> &results)
{
    std::ostringstream all;
    core::writeSummaryCsv(all, results);
    core::writeCdfCsv(all, results);
    core::writeRotPdfCsv(all, results);
    return all.str();
}

TEST(ParallelDeterminism, SweepIsBitIdenticalAt1_2_8Threads)
{
    const auto serial = runMiniSweep(1);
    const auto two = runMiniSweep(2);
    const auto eight = runMiniSweep(8);
    expectBitIdentical(serial, two);
    expectBitIdentical(serial, eight);

    // And the exported CSVs are byte-stable.
    const std::string bytes = csvBytes(serial);
    EXPECT_EQ(bytes, csvBytes(two));
    EXPECT_EQ(bytes, csvBytes(eight));
    EXPECT_FALSE(bytes.empty());
}

TEST(ParallelDeterminism, RepeatedParallelRunsAgree)
{
    // Same thread count, two executions: completion order differs,
    // results must not.
    const auto first = runMiniSweep(4);
    const auto second = runMiniSweep(4);
    expectBitIdentical(first, second);
    EXPECT_EQ(csvBytes(first), csvBytes(second));
}

TEST(ParallelDeterminism, RunSystemsMatchesSerialRunTrace)
{
    workload::SyntheticParams wp;
    wp.requests = 1200;
    wp.meanInterArrivalMs = 4.0;
    const auto trace = workload::generateSynthetic(wp);

    std::vector<core::SystemConfig> configs;
    for (std::uint32_t actuators : {1u, 2u, 4u}) {
        disk::DriveSpec drive = disk::barracudaEs750();
        if (actuators > 1)
            drive = disk::makeIntraDiskParallel(drive, actuators);
        configs.push_back(core::makeRaid0System(
            "SA(" + std::to_string(actuators) + ")", drive, 1));
    }

    // Reference: the pre-engine serial loop.
    std::vector<core::RunResult> reference;
    for (const auto &config : configs)
        reference.push_back(core::runTrace(trace, config));

    expectBitIdentical(reference,
                       exec::runSystems(trace, configs, 1));
    expectBitIdentical(reference,
                       exec::runSystems(trace, configs, 8));
}

} // namespace
