/**
 * @file
 * Fuzz audit harness: randomized array configurations and workloads
 * driven through the full stack with the invariant checker hot, on
 * the serial engine, under PDES at 1 and 4 workers and serially with
 * the exhaustive scheduler scan (every run must stay checker-clean
 * and produce byte-equal CSV output), plus
 * serialization round-trip audits (trace files, CSV exports) on the
 * randomized results. Complements test_fuzz_configs.cc, which fuzzes
 * the bare DiskDrive; here the whole array/RAID/cache/verify path is
 * under test, and every violation the checker records is a failure.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "verify/verify.hh"
#include "workload/trace_io.hh"

namespace {

using namespace idp;
using verify::FailMode;
using verify::InvariantChecker;
using verify::VerifyScope;

disk::DriveSpec
randomDrive(sim::Rng &rng)
{
    disk::DriveSpec spec;
    spec.rpm = static_cast<std::uint32_t>(
        rng.uniformInt(static_cast<std::int64_t>(4200),
                       static_cast<std::int64_t>(15000)));
    spec.geometry.capacityBytes =
        static_cast<std::uint64_t>(rng.uniform(0.5, 4.0) * 1e9);
    spec.dash.armAssemblies = static_cast<std::uint32_t>(
        rng.uniformInt(static_cast<std::int64_t>(1),
                       static_cast<std::int64_t>(4)));
    spec.maxConcurrentSeeks = 1 + static_cast<std::uint32_t>(
        rng.uniformInt(static_cast<std::uint64_t>(
            spec.dash.armAssemblies)));
    spec.maxConcurrentTransfers = 1 + static_cast<std::uint32_t>(
        rng.uniformInt(static_cast<std::uint64_t>(
            spec.dash.armAssemblies)));
    const sched::Policy policies[] = {
        sched::Policy::Fcfs, sched::Policy::Sstf, sched::Policy::Clook,
        sched::Policy::Sptf, sched::Policy::SptfAged};
    spec.sched.policy =
        policies[rng.uniformInt(static_cast<std::uint64_t>(5))];
    spec.cache.writeBack = rng.chance(0.3);
    spec.coalesce = rng.chance(0.3);
    spec.zeroLatencyAccess = rng.chance(0.3);
    spec.mediaRetryRate = rng.chance(0.25) ? rng.uniform(0.0, 0.2) : 0.0;
    spec.normalize();
    return spec;
}

core::SystemConfig
randomSystem(sim::Rng &rng)
{
    const disk::DriveSpec drive = randomDrive(rng);
    core::SystemConfig config;
    switch (rng.uniformInt(4ULL)) {
      case 0:
        config = core::makeRaid0System("fuzz-single", drive, 1);
        break;
      case 1:
        config = core::makeRaid0System(
            "fuzz-raid0", drive,
            2 + static_cast<std::uint32_t>(rng.uniformInt(3ULL)));
        break;
      case 2:
        config = core::makeRaid0System("fuzz-raid1", drive, 4);
        config.array.layout = array::Layout::Raid1;
        break;
      default:
        config = core::makeRaid0System(
            "fuzz-raid5", drive,
            3 + static_cast<std::uint32_t>(rng.uniformInt(3ULL)));
        config.array.layout = array::Layout::Raid5;
        break;
    }
    config.array.stripeSectors = 8u << rng.uniformInt(5ULL);
    return config;
}

workload::Trace
randomTrace(sim::Rng &rng, std::uint64_t logical_sectors,
            std::uint64_t requests)
{
    workload::Trace trace;
    sim::Tick clock = 0;
    for (std::uint64_t i = 0; i < requests; ++i) {
        workload::IoRequest req;
        req.id = i;
        clock += rng.uniformInt(4ULL * sim::kTicksPerMs);
        req.arrival = clock;
        req.device = 0;
        req.sectors = 1 + static_cast<std::uint32_t>(
            rng.uniformInt(255ULL));
        req.lba = rng.uniformInt(logical_sectors - req.sectors);
        req.isRead = rng.chance(0.6);
        req.background = rng.chance(0.05);
        trace.push_back(req);
    }
    return trace;
}

/** Summary + CDF CSV of one run: the bytes every engine must match. */
std::string
resultCsv(const core::RunResult &result)
{
    std::ostringstream os;
    core::writeSummaryCsv(os, {result});
    core::writeCdfCsv(os, {result});
    return os.str();
}

class VerifyFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(VerifyFuzz, RandomArrayRunsViolateNothing)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out: the run feeds no hooks";
    const auto seed = 0xFA22 + static_cast<std::uint64_t>(GetParam());
    sim::Rng rng(seed);
    core::SystemConfig config = randomSystem(rng);

    // Probe the logical capacity with a throwaway build (cheap), then
    // fuzz a workload inside it.
    const std::uint64_t logical = [&] {
        sim::Simulator probe;
        return array::StorageArray(probe, config.array)
            .logicalSectors();
    }();
    workload::Trace trace = randomTrace(rng, logical, 400);

    // Bus and replica policy come from a second stream, so the specs
    // drawn above stay what they were before these knobs joined.
    sim::Rng knobs(sim::streamSeed(seed, 1));
    config.array.useBus = knobs.chance(0.5);
    config.array.replica = knobs.chance(0.5)
        ? array::ReplicaPolicy::Positioning
        : array::ReplicaPolicy::Queue;

    // Every run must be checker-clean.
    const auto checked_run = [&](const std::string &label) {
        SCOPED_TRACE(config.name + " bus=" +
                     std::to_string(config.array.useBus) + " " + label);
        InvariantChecker vc(FailMode::Record);
        core::RunResult run;
        {
            VerifyScope scope(&vc);
            run = core::runTrace(trace, config);
        }
        vc.finalize();
        EXPECT_TRUE(vc.violations().empty()) << vc.violations().front();
        EXPECT_GT(vc.observations(), trace.size());
        EXPECT_EQ(run.completions, trace.size());
        return run;
    };

    // Every engine must produce the serial run's bytes, and so must
    // the exhaustive scheduler scan, the oracle the pruned dispatch
    // has to match.
    const core::RunResult result = checked_run("serial");
    const std::string want = resultCsv(result);
    for (const unsigned workers : {1u, 4u}) {
        config.pdesWorkers = workers;
        const std::string label = "workers=" + std::to_string(workers);
        EXPECT_EQ(resultCsv(checked_run(label)), want) << label;
    }
    config.pdesWorkers = 0;
    config.array.drive.schedPrune = false;
    EXPECT_EQ(resultCsv(checked_run("exhaustive")), want) << "exhaustive";

    // Serialization audits on the fuzzed run:
    // (a) the trace must round-trip exactly through the v2 format;
    std::stringstream buf;
    workload::writeTrace(buf, trace);
    const workload::Trace loaded = workload::readTrace(buf);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].id, trace[i].id);
        EXPECT_EQ(loaded[i].arrival, trace[i].arrival);
        EXPECT_EQ(loaded[i].lba, trace[i].lba);
        EXPECT_EQ(loaded[i].sectors, trace[i].sectors);
        EXPECT_EQ(loaded[i].isRead, trace[i].isRead);
        EXPECT_EQ(loaded[i].background, trace[i].background);
    }

    // (b) CSV exports must be stable across a second serialization
    // and well-formed: the summary names the system, and the CDF
    // holds a header plus one row per bucket.
    EXPECT_EQ(want, resultCsv(result));
    EXPECT_NE(want.find(config.name), std::string::npos);

    std::ostringstream cdf;
    core::writeCdfCsv(cdf, {result});
    std::size_t rows = 0;
    for (char c : cdf.str())
        rows += c == '\n';
    EXPECT_EQ(rows, 1 + result.responseHist.buckets());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyFuzz, ::testing::Range(0, 48));

} // namespace
