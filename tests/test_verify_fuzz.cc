/**
 * @file
 * Fuzz audit harness: randomized array configurations and workloads
 * driven through the full stack with the invariant checker hot, plus
 * serialization round-trip audits (trace files, CSV exports) on the
 * randomized results. Complements test_fuzz_configs.cc, which fuzzes
 * the bare DiskDrive; here the whole array/RAID/cache/verify path is
 * under test, and every violation the checker records is a failure.
 */

#include <gtest/gtest.h>

#include <sstream>

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

class VerifyFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(VerifyFuzz, RandomArrayRunsViolateNothing)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out: the run feeds no hooks";
    sim::Rng rng(0xFA22 + static_cast<std::uint64_t>(GetParam()));
    const core::SystemConfig config = randomSystem(rng);

    // Probe the logical capacity with a throwaway build (cheap), then
    // fuzz a workload inside it.
    const std::uint64_t logical = [&] {
        sim::Simulator probe;
        return array::StorageArray(probe, config.array)
            .logicalSectors();
    }();
    workload::Trace trace = randomTrace(rng, logical, 400);

    InvariantChecker vc(FailMode::Record);
    core::RunResult result;
    {
        VerifyScope scope(&vc);
        result = core::runTrace(trace, config);
    }
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty())
        << config.name << ": " << vc.violations().front();
    EXPECT_GT(vc.observations(), trace.size());
    EXPECT_EQ(result.completions, trace.size());

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

    // (b) CSV exports must be well-formed: header plus one data row
    // per system / bucket, stable across a second serialization.
    std::ostringstream csv1, csv2;
    core::writeSummaryCsv(csv1, {result});
    core::writeSummaryCsv(csv2, {result});
    EXPECT_EQ(csv1.str(), csv2.str());
    EXPECT_NE(csv1.str().find(config.name), std::string::npos);

    std::ostringstream cdf;
    core::writeCdfCsv(cdf, {result});
    std::size_t rows = 0;
    for (char c : cdf.str())
        rows += c == '\n';
    EXPECT_EQ(rows, 1 + result.responseHist.buckets());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyFuzz, ::testing::Range(0, 12));

} // namespace
