/**
 * @file
 * Cross-PR determinism regression: a small fixed scenario whose
 * summary statistics are pinned to a checked-in golden file.
 *
 * The parallel-runner tests prove cross-*thread* determinism; this
 * test catches cross-*PR* drift — any change to the simulator core,
 * workload generator, RNG, stats formatting or power model that
 * alters the numbers of a fixed scenario fails here, loudly, with a
 * diffable CSV.
 *
 * Scenario: one HC-SD-SA(2) drive (the paper's 2-actuator design),
 * 5,000 synthetic requests with exponential arrivals (mean 4 ms, 60%
 * reads, 20% sequential — the Section 7.3 mix), default seed.
 *
 * Refreshing after an *intentional* model change:
 *
 *     IDP_UPDATE_GOLDEN=1 ./build/tests/idp_tests \
 *         --gtest_filter='DeterminismGolden.*'
 *
 * then review the golden diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "array/rebuild.hh"
#include "array/storage_array.hh"
#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "exec/pdes.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

const char *kGoldenRelPath = "/tests/golden/determinism_sa2.csv";

std::string
goldenPath()
{
    return std::string(IDP_SOURCE_DIR) + kGoldenRelPath;
}

std::string
runScenario()
{
    workload::SyntheticParams wp;
    wp.requests = 5000;
    wp.meanInterArrivalMs = 4.0; // exponential arrivals
    const auto trace = workload::generateSynthetic(wp);

    const core::SystemConfig config = core::makeRaid0System(
        "HC-SD-SA(2)",
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 2), 1);
    const std::vector<core::RunResult> results = {
        core::runTrace(trace, config)};

    std::ostringstream os;
    core::writeSummaryCsv(os, results);
    core::writeCdfCsv(os, results);
    core::writeRotPdfCsv(os, results);
    return os.str();
}

TEST(DeterminismGolden, Sa2ExponentialScenarioMatchesGoldenFile)
{
    const std::string measured = runScenario();

    if (std::getenv("IDP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream os(goldenPath());
        ASSERT_TRUE(os) << "cannot write " << goldenPath();
        os << measured;
        GTEST_SKIP() << "golden file refreshed: " << goldenPath();
    }

    std::ifstream is(goldenPath());
    ASSERT_TRUE(is) << "missing golden file " << goldenPath()
                    << " — generate it with IDP_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << is.rdbuf();

    EXPECT_EQ(golden.str(), measured)
        << "simulator output drifted from " << goldenPath()
        << "\nIf this change is intentional, refresh with "
           "IDP_UPDATE_GOLDEN=1 and review the diff.";
}

TEST(DeterminismGolden, ScenarioIsRunToRunStable)
{
    // The golden comparison is only meaningful if the scenario is a
    // pure function — two in-process runs must agree byte-for-byte.
    EXPECT_EQ(runScenario(), runScenario());
}

// ---------------------------------------------------------------
// PDES golden matrix: each scenario below is pinned to one golden
// file that the serial path (pdesWorkers = 0) and the PDES path at 1
// and 8 workers must all reproduce byte-for-byte. Catches both
// cross-PR drift and any serial/parallel or worker-count divergence.
// ---------------------------------------------------------------

struct PdesScenario
{
    const char *golden; ///< path under tests/golden/
    core::SystemConfig config;
    std::uint64_t requests;
};

PdesScenario
pdesScenario(const std::string &name)
{
    if (name == "sa1") {
        return {"/tests/golden/determinism_pdes_sa1.csv",
                core::makeRaid0System(
                    "HC-SD-SA(1)",
                    disk::makeIntraDiskParallel(disk::barracudaEs750(),
                                                1),
                    1),
                5000};
    }
    if (name == "sa4") {
        return {"/tests/golden/determinism_pdes_sa4.csv",
                core::makeRaid0System(
                    "HC-SD-SA(4)",
                    disk::makeIntraDiskParallel(disk::barracudaEs750(),
                                                4),
                    1),
                5000};
    }
    if (name == "raid5") {
        // RAID-5 with the host bus modeled: the finite-lookahead
        // regime, where windows are bounded by the one-sector bus
        // transfer. Kept shorter — the run synchronizes every ~12 us
        // of simulated time.
        core::SystemConfig raid5;
        raid5.name = "RAID5-4";
        raid5.array.layout = array::Layout::Raid5;
        raid5.array.disks = 4;
        raid5.array.drive = disk::barracudaEs750();
        raid5.array.useBus = true;
        return {"/tests/golden/determinism_pdes_raid5.csv", raid5,
                1500};
    }
    if (name == "raid1") {
        // RAID-1 with positioning-priced replica dispatch: the
        // coordinator reads live arm/rotation state on every read, so
        // the dynamic engine must serialize each dispatch tick while
        // still parallelizing the drive windows between them.
        core::SystemConfig raid1;
        raid1.name = "RAID1-4";
        raid1.array.layout = array::Layout::Raid1;
        raid1.array.disks = 4;
        raid1.array.drive = disk::barracudaEs750();
        return {"/tests/golden/determinism_pdes_raid1.csv", raid1,
                3000};
    }
    // Busless RAID-5: read-modify-write resubmits at the completion
    // tick with zero bus latency — PDES bounds horizons by drive
    // completion floors.
    core::SystemConfig nobus;
    nobus.name = "RAID5-4-nobus";
    nobus.array.layout = array::Layout::Raid5;
    nobus.array.disks = 4;
    nobus.array.drive = disk::barracudaEs750();
    nobus.array.useBus = false;
    return {"/tests/golden/determinism_pdes_raid5_nobus.csv", nobus,
            1500};
}

std::string
runPdesScenario(const PdesScenario &scenario, unsigned pdes_workers)
{
    workload::SyntheticParams wp;
    wp.requests = scenario.requests;
    wp.meanInterArrivalMs = 2.0;
    const auto trace = workload::generateSynthetic(wp);

    core::SystemConfig config = scenario.config;
    config.pdesWorkers = pdes_workers;
    const std::vector<core::RunResult> results = {
        core::runTrace(trace, config)};

    std::ostringstream os;
    core::writeSummaryCsv(os, results);
    core::writeCdfCsv(os, results);
    core::writeRotPdfCsv(os, results);
    return os.str();
}

class PdesGolden : public testing::TestWithParam<const char *>
{
};

TEST_P(PdesGolden, MatrixMatchesGoldenFileAtEveryWorkerCount)
{
    const PdesScenario scenario = pdesScenario(GetParam());
    const std::string path =
        std::string(IDP_SOURCE_DIR) + scenario.golden;

    const std::string serial = runPdesScenario(scenario, 0);

    if (std::getenv("IDP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream os(path);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << serial;
        GTEST_SKIP() << "golden file refreshed: " << path;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is) << "missing golden file " << path
                    << " — generate it with IDP_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << is.rdbuf();

    EXPECT_EQ(golden.str(), serial)
        << "serial output drifted from " << scenario.golden;
    EXPECT_EQ(golden.str(), runPdesScenario(scenario, 1))
        << "PDES(1 worker) diverged from " << scenario.golden;
    EXPECT_EQ(golden.str(), runPdesScenario(scenario, 4))
        << "PDES(4 workers) diverged from " << scenario.golden;
    EXPECT_EQ(golden.str(), runPdesScenario(scenario, 8))
        << "PDES(8 workers) diverged from " << scenario.golden;
}

INSTANTIATE_TEST_SUITE_P(Matrix, PdesGolden,
                         testing::Values("sa1", "sa4", "raid5",
                                         "raid1", "raid5nobus"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// ---------------------------------------------------------------
// Failure-lifecycle goldens: degraded RAID-5 (a member fails mid-run
// with work in flight) and rebuilding RAID-1 (spare reconstruction
// streams under foreground traffic). runTrace has no failure hook, so
// these drive an exec::ArrayRun directly and pin a summary
// CSV of the response/accounting numbers. With pdes_workers > 0 the
// same scenario runs under the PDES engine. Both runs schedule the
// mid-run failure through scheduleFailDisk (under PDES it is also a
// horizon barrier), and the bytes must not move.
// ---------------------------------------------------------------

std::string
runFailureScenario(const std::string &name, unsigned pdes_workers = 0)
{
    const bool rebuilding = name == "rebuild_raid1";
    array::ArrayParams params;
    params.drive = disk::enterpriseDrive(1.0, 10000, 2);
    if (rebuilding) {
        params.layout = array::Layout::Raid1;
        params.disks = 2;
    } else {
        params.layout = array::Layout::Raid5;
        params.disks = 4;
        params.stripeSectors = 16;
    }

    exec::ArrayRun run(params, pdes_workers);
    array::StorageArray &arr = run.array();

    workload::SyntheticParams wp;
    wp.requests = 2000;
    wp.meanInterArrivalMs = 2.0;
    wp.addressSpaceSectors = arr.logicalSectors() - 64;
    wp.seed = 0xFA11;
    const auto trace = workload::generateSynthetic(wp);
    for (const auto &req : trace)
        run.feed().schedule(req.arrival,
                            [&arr, req] { arr.submit(req); });

    if (rebuilding) {
        // Before run(): every calendar still sits at tick 0, so the
        // direct calls are serially synchronized in both modes.
        arr.failDisk(0);
        array::RebuildParams rp;
        rp.chunkSectors = 65536;
        arr.startRebuild(0, rp);
    } else {
        arr.scheduleFailDisk(1, 50 * sim::kTicksPerMs);
    }
    run.run();

    const array::ArrayStats &st = arr.stats();
    std::ostringstream os;
    os << "scenario,completions,dropped,tainted,samples,"
          "mean_ms,p90_ms,p99_ms\n";
    os << name << ',' << st.logicalCompletions << ','
       << st.droppedSubCompletions << ',' << st.taintedJoins << ','
       << st.responseMs.count() << ',' << stats::fmt(st.responseMs.mean(), 4)
       << ',' << stats::fmt(st.responseMs.p90(), 4) << ','
       << stats::fmt(st.responseMs.p99(), 4) << '\n';
    if (rebuilding) {
        const auto &prog = arr.rebuild()->progress();
        os << "rebuild,chunks,reads,spare_writes,yields,window_ms\n";
        os << "rebuild," << prog.chunksDone << ',' << prog.readSubs
           << ',' << prog.spareWrites << ',' << prog.yields << ','
           << stats::fmt(
                  sim::ticksToMs(prog.finishedAt - prog.startedAt), 4)
           << '\n';
    }
    return os.str();
}

class FailureGolden : public testing::TestWithParam<const char *>
{
};

TEST_P(FailureGolden, ScenarioMatchesGoldenFile)
{
    const std::string name = GetParam();
    const std::string path = std::string(IDP_SOURCE_DIR) +
        "/tests/golden/determinism_" + name + ".csv";
    const std::string measured = runFailureScenario(name);

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
        << "failure-lifecycle output drifted from " << path
        << "\nIf this change is intentional, refresh with "
           "IDP_UPDATE_GOLDEN=1 and review the diff.";
}

TEST_P(FailureGolden, ScenarioIsRunToRunStable)
{
    EXPECT_EQ(runFailureScenario(GetParam()),
              runFailureScenario(GetParam()));
}

TEST_P(FailureGolden, PdesMatchesSerialAtEveryWorkerCount)
{
    // The mid-run failDisk becomes a horizon barrier and the rebuild
    // stream serializes its pump ticks; the summary bytes must match
    // the serial run at any worker count.
    const std::string serial = runFailureScenario(GetParam(), 0);
    EXPECT_EQ(serial, runFailureScenario(GetParam(), 1));
    EXPECT_EQ(serial, runFailureScenario(GetParam(), 4));
    EXPECT_EQ(serial, runFailureScenario(GetParam(), 8));
}

INSTANTIATE_TEST_SUITE_P(Lifecycle, FailureGolden,
                         testing::Values("degraded_raid5",
                                         "rebuild_raid1"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// ---------------------------------------------------------------
// A run's settings come only from its params. These variables were
// once read inside library constructors and overrode the caller's
// config; exporting them must not move a byte.
// ---------------------------------------------------------------

/** The former overrides, each with a value that differs from the
 *  params these scenarios use. */
const std::pair<const char *, const char *> kFormerOverrides[] = {
    {"IDP_GOVERNOR", "1"},
    {"IDP_GOVERNOR_WINDOW_MS", "125"},
    {"IDP_GOVERNOR_SLO_MS", "30"},
    {"IDP_GOVERNOR_DWELL_MS", "1500"},
    {"IDP_GOVERNOR_PARK", "2"},
    {"IDP_REPLICA", "queue"},
    {"IDP_REBUILD_CHUNK", "4096"},
    {"IDP_REBUILD_MBPS", "50"},
    {"IDP_REBUILD_YIELD", "0"},
    {"IDP_SCHED_PRUNE", "0"},
};

/** Sets (or unsets) every former override for its lifetime, then
 *  restores the environment the test started with. */
class FormerOverridesScope
{
  public:
    explicit FormerOverridesScope(bool set)
    {
        for (const auto &[name, value] : kFormerOverrides) {
            const char *old = std::getenv(name);
            saved_.push_back({name, old != nullptr, old ? old : ""});
            if (set)
                ::setenv(name, value, 1);
            else
                ::unsetenv(name);
        }
    }
    ~FormerOverridesScope()
    {
        for (const Saved &s : saved_) {
            if (s.wasSet)
                ::setenv(s.name, s.value.c_str(), 1);
            else
                ::unsetenv(s.name);
        }
    }
    FormerOverridesScope(const FormerOverridesScope &) = delete;
    FormerOverridesScope &operator=(const FormerOverridesScope &) = delete;

  private:
    struct Saved
    {
        const char *name;
        bool wasSet;
        std::string value;
    };
    std::vector<Saved> saved_;
};

TEST(DeterminismGolden, FormerEnvOverridesLeaveRunsUnchanged)
{
    std::string sa2, rebuild;
    {
        const FormerOverridesScope unset(false);
        sa2 = runScenario();
        rebuild = runFailureScenario("rebuild_raid1");
    }
    const FormerOverridesScope set(true);
    EXPECT_EQ(runScenario(), sa2);
    EXPECT_EQ(runFailureScenario("rebuild_raid1"), rebuild);
}

} // namespace
