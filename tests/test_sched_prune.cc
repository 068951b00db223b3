/**
 * @file
 * Drive-level regression suite for the pruned dispatch path.
 *
 * The indexed scheduler is only acceptable if it is *invisible*: the
 * simulated world with pruning on must be byte-identical to the
 * exhaustive scan at every queue depth, policy, and thread count.
 * These tests pin that equivalence where it is most likely to break
 * (deep queues, aged SPTF, multi-actuator drives), pin the SptfAged
 * starvation bound the aging credit exists to provide, prove the
 * sampled pruned-vs-exhaustive cross-check actually runs and stays
 * silent, and hold a deep-queue scenario to a golden CSV across
 * IDP_THREADS settings.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "disk/disk_drive.hh"
#include "exec/sweep_runner.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "verify/verify.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;
using disk::DiskDrive;
using disk::DriveSpec;
using disk::ServiceInfo;
using workload::IoRequest;

struct Completion
{
    std::uint64_t id;
    sim::Tick done;

    bool
    operator==(const Completion &o) const
    {
        return id == o.id && done == o.done;
    }
};

struct Harness
{
    sim::Simulator simul;
    std::vector<Completion> completions;
    DiskDrive drive;

    explicit Harness(const DriveSpec &spec)
        : drive(simul, spec,
                [this](const IoRequest &r, sim::Tick t,
                       const ServiceInfo &) {
                    completions.push_back({r.id, t});
                })
    {
    }

    void
    submitAt(sim::Tick when, IoRequest req)
    {
        req.arrival = when;
        simul.schedule(when, [this, req] { drive.submit(req); });
    }
};

/** 4-actuator drive with a deep scheduling window. */
DriveSpec
deepQueueSpec(sched::Policy policy, bool prune)
{
    DriveSpec spec = disk::makeIntraDiskParallel(
        disk::enterpriseDrive(2.0, 10000, 2), 4);
    spec.sched.policy = policy;
    spec.schedWindow = 256;
    spec.schedPrune = prune;
    return spec;
}

IoRequest
makeReq(std::uint64_t id, geom::Lba lba, std::uint32_t sectors,
        bool is_read)
{
    IoRequest r;
    r.id = id;
    r.lba = lba;
    r.sectors = sectors;
    r.isRead = is_read;
    return r;
}

/**
 * Burst-load the drive so the window holds >= 256 pending requests,
 * then drain; returns the full completion sequence.
 */
std::vector<Completion>
runDeepQueue(const DriveSpec &spec, std::uint64_t seed)
{
    Harness h(spec);
    sim::Rng rng(seed);
    const std::uint64_t span = h.drive.geometry().totalSectors() - 64;
    // 400 requests inside one millisecond: far faster than the drive
    // can drain, so the window saturates at schedWindow = 256.
    for (std::uint64_t i = 0; i < 400; ++i)
        h.submitAt(1 + (i * sim::kTicksPerMs) / 400,
                   makeReq(i, rng.uniformInt(span), 8,
                           rng.uniformInt(100) < 70));
    // A second wave while the first is draining.
    for (std::uint64_t i = 400; i < 600; ++i)
        h.submitAt(20 * sim::kTicksPerMs +
                       ((i - 400) * sim::kTicksPerMs) / 50,
                   makeReq(i, rng.uniformInt(span), 8,
                           rng.uniformInt(100) < 70));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 600u);
    return h.completions;
}

TEST(SchedPrune, DeepQueueCompletionsByteIdenticalAcrossPolicies)
{
    for (sched::Policy p :
         {sched::Policy::Sstf, sched::Policy::Clook,
          sched::Policy::Sptf, sched::Policy::SptfAged}) {
        const auto pruned =
            runDeepQueue(deepQueueSpec(p, true), 0xDEE9);
        const auto exhaustive =
            runDeepQueue(deepQueueSpec(p, false), 0xDEE9);
        ASSERT_EQ(pruned.size(), exhaustive.size())
            << sched::policyToString(p);
        for (std::size_t i = 0; i < pruned.size(); ++i) {
            ASSERT_TRUE(pruned[i] == exhaustive[i])
                << sched::policyToString(p) << ": completion " << i
                << " diverged (id " << pruned[i].id << " @ "
                << pruned[i].done << " vs id " << exhaustive[i].id
                << " @ " << exhaustive[i].done << ")";
        }
    }
}

/**
 * SptfAged starvation bound: a lone request on a far cylinder, buried
 * under a continuous stream of hot-cylinder traffic that pure SPTF
 * would always prefer, must still complete while the hot stream is
 * active -- the aging credit guarantees its effective cost eventually
 * undercuts every fresh nearby request. The pruned scan must honour
 * the same bound (its lower bound is widened by the maximum credit),
 * and produce the identical completion tick.
 */
sim::Tick
coldRequestCompletion(bool prune)
{
    DriveSpec spec = deepQueueSpec(sched::Policy::SptfAged, prune);
    spec.sched.agingWeight = 0.01;
    Harness h(spec);
    const std::uint64_t span = h.drive.geometry().totalSectors() - 64;
    sim::Rng rng(0xC01D);

    // Hot stream: 2000 requests, 0.25 ms apart, all within a narrow
    // LBA band at the start of the disk (the arms park nearby).
    for (std::uint64_t i = 0; i < 2000; ++i)
        h.submitAt(1 + i * (sim::kTicksPerMs / 4),
                   makeReq(i, rng.uniformInt(span / 64), 8, true));
    // The cold outlier: one request at the far end of the disk,
    // submitted early so its wait accrues while the hot stream runs.
    const std::uint64_t cold_id = 9999;
    h.submitAt(2 * sim::kTicksPerMs,
               makeReq(cold_id, span - 8, 8, true));
    h.simul.run();

    for (const Completion &c : h.completions)
        if (c.id == cold_id)
            return c.done;
    ADD_FAILURE() << "cold request never completed";
    return 0;
}

TEST(SchedPrune, SptfAgedServesColdRequestWithinAgingBound)
{
    const sim::Tick with_prune = coldRequestCompletion(true);
    const sim::Tick without = coldRequestCompletion(false);
    EXPECT_EQ(with_prune, without)
        << "pruning changed the aged-SPTF starvation behaviour";
    // The hot stream alone runs for 500 ms. With agingWeight 0.01 the
    // cold request's credit grows ~10 ticks per ms of wait; it must
    // be dispatched well before the stream ends rather than starving
    // behind it.
    EXPECT_LT(sim::ticksToMs(with_prune), 350.0);
    EXPECT_GT(sim::ticksToMs(with_prune), 2.0);
}

TEST(SchedPrune, CrossCheckRunsAndStaysSilent)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out: no sched cross-check runs";
    // With a checker installed, the indexed schedulers periodically
    // re-derive their pick with the exhaustive reference; a live run
    // must record sched observations and zero violations.
    for (sched::Policy p :
         {sched::Policy::Sstf, sched::Policy::Clook,
          sched::Policy::Sptf, sched::Policy::SptfAged}) {
        verify::InvariantChecker checker(verify::FailMode::Record);
        const std::uint64_t before = checker.observations();
        {
            verify::VerifyScope scope(&checker);
            runDeepQueue(deepQueueSpec(p, true), 0xCC);
        }
        checker.finalize();
        EXPECT_GT(checker.observations(), before)
            << sched::policyToString(p);
        EXPECT_TRUE(checker.violations().empty())
            << sched::policyToString(p) << ": "
            << checker.violations().front();
    }
}

// ---------------------------------------------------------------
// Deep-queue golden determinism across thread counts
// ---------------------------------------------------------------

const char *kGoldenRelPath = "/tests/golden/determinism_deepq.csv";

std::string
goldenPath()
{
    return std::string(IDP_SOURCE_DIR) + kGoldenRelPath;
}

/** A saturating scenario whose window stays at 256 for most of the
 *  run, exercising the pruned path hard; summarized as CSV. */
std::string
runDeepScenario(unsigned threads)
{
    exec::SweepRunner runner(threads, /*base_seed=*/0xDEE9);
    const auto results = runner.run(
        8, [](const exec::SweepPoint &point) {
            workload::SyntheticParams wp;
            wp.requests = 3000;
            wp.seed = point.seed;
            wp.meanInterArrivalMs = 0.25; // saturating arrival rate
            DriveSpec drive = disk::makeIntraDiskParallel(
                disk::barracudaEs750(), 1 + point.index % 4);
            drive.sched.policy = point.index % 2 == 0
                ? sched::Policy::Sptf
                : sched::Policy::SptfAged;
            drive.schedWindow = 256;
            const core::SystemConfig config = core::makeRaid0System(
                "deepq#" + std::to_string(point.index), drive, 1);
            return core::runTrace(workload::generateSynthetic(wp),
                                  config);
        });
    std::ostringstream os;
    core::writeSummaryCsv(os, results);
    core::writeCdfCsv(os, results);
    return os.str();
}

TEST(SchedPruneGolden, DeepQueueScenarioMatchesGoldenFile)
{
    const std::string measured = runDeepScenario(1);

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
        << "pruned dispatch drifted from " << goldenPath()
        << "\nIf this change is intentional, refresh with "
           "IDP_UPDATE_GOLDEN=1 and review the diff.";
}

TEST(SchedPruneGolden, ThreadCountIsUnobservable)
{
    EXPECT_EQ(runDeepScenario(1), runDeepScenario(8));
}

} // namespace
