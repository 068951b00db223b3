/**
 * @file
 * Tests for the runtime invariant checker itself: seeded violations
 * must be caught (Record mode), clean end-to-end runs must stay
 * silent with the checker hot, and the install/override machinery
 * (VerifyScope nesting, environment gate) must behave.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <unordered_map>

#include "core/closed_loop.hh"
#include "core/experiment.hh"
#include "sim/rng.hh"
#include "verify/id_table.hh"
#include "verify/verify.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;
using verify::FailMode;
using verify::InvariantChecker;
using verify::VerifyScope;

// ---------------------------------------------------------------
// Seeded violations: every invariant class must trip in Record mode.
// ---------------------------------------------------------------

TEST(VerifyChecker, CatchesKernelTimeBackwards)
{
    InvariantChecker vc(FailMode::Record);
    vc.checkKernelTime(0, 0, 100);
    // when >= now, so only the monotonicity check (not the firing-
    // before-clock check) trips.
    vc.checkKernelTime(0, 50, 60);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("backwards"), std::string::npos);
}

TEST(VerifyChecker, CatchesEventFiringBeforeClock)
{
    InvariantChecker vc(FailMode::Record);
    vc.checkKernelTime(0, 50, 40);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("clock"), std::string::npos);
}

TEST(VerifyChecker, CatchesCompletionWithoutSubmit)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskComplete(0, 7, 1000, 10);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("more times"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesDoubleCompletion)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 7, 0, 0);
    vc.diskComplete(0, 7, 1000, 10);
    EXPECT_TRUE(vc.violations().empty());
    vc.diskComplete(0, 7, 2000, 10);
    ASSERT_EQ(vc.violations().size(), 1u);
}

TEST(VerifyChecker, CatchesCompletionFasterThanMinimumService)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 7, 100, 100);
    vc.diskComplete(0, 7, 150, /*min_service=*/100);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("minimum service"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesSubmitBeforeArrival)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 7, /*arrival=*/500, /*now=*/400);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("arrival"), std::string::npos);
}

TEST(VerifyChecker, AllowsRaidStyleResubmitOfOneId)
{
    // RAID-5 read-modify-write legitimately sends the same join id to
    // a disk twice (read old, then write new): multiset accounting.
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 7, 0, 0);
    vc.diskComplete(0, 7, 1000, 10);
    vc.diskSubmit(0, 7, 1000, 1000);
    vc.diskComplete(0, 7, 2000, 10);
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty());
}

TEST(VerifyChecker, CatchesArmOccupancyMismatch)
{
    InvariantChecker vc(FailMode::Record);
    // 2 in-flight but only 1 busy arm: an access lost its arm.
    vc.checkDiskOccupancy(0, 2, 1, 4, 0, 1, 0, 1);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("busy arms"), std::string::npos);
}

TEST(VerifyChecker, CatchesBudgetOverflows)
{
    InvariantChecker vc(FailMode::Record);
    vc.checkDiskOccupancy(0, 2, 2, 4, /*seeks*/ 2, /*max*/ 1, 0, 1);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("motion budget"),
              std::string::npos);
    vc.checkDiskOccupancy(0, 2, 2, 4, 1, 1, /*xfers*/ 3, /*max*/ 2);
    ASSERT_EQ(vc.violations().size(), 2u);
    EXPECT_NE(vc.violations()[1].find("channel budget"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesJoinAccountingBugs)
{
    InvariantChecker vc(FailMode::Record);
    vc.arraySplit(1, 0, 0);
    vc.arraySub(1);
    vc.arraySubFinish(1, 100);
    vc.arrayJoin(1, 0, 100);
    EXPECT_TRUE(vc.violations().empty());

    vc.arrayJoin(1, 0, 100); // join id already retired
    ASSERT_EQ(vc.violations().size(), 1u);

    vc.arraySplit(2, 0, 0);
    vc.arraySub(2);
    vc.arrayJoin(2, 0, 50); // one sub still outstanding
    EXPECT_EQ(vc.violations().size(), 2u);
    EXPECT_NE(vc.violations()[1].find("outstanding"),
              std::string::npos);

    vc.arraySubFinish(3, 10); // no such join
    EXPECT_EQ(vc.violations().size(), 3u);
}

TEST(VerifyChecker, FinalizeCatchesLeakedWork)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 1, 0, 0);   // never completes
    vc.arraySplit(9, 0, 0);      // never joins
    vc.finalize();
    // Leaked disk id, submit/completion imbalance, leaked join, and
    // split/join count mismatch all fire.
    EXPECT_EQ(vc.violations().size(), 4u);
}

TEST(VerifyChecker, PanicModeDiesOnViolation)
{
    EXPECT_DEATH(
        {
            InvariantChecker vc(FailMode::Panic);
            vc.diskComplete(0, 7, 1000, 10);
        },
        "invariant violated");
}

// ---------------------------------------------------------------
// Install machinery.
// ---------------------------------------------------------------

TEST(VerifyScope, NestsAndRestores)
{
    EXPECT_EQ(InvariantChecker::current(), nullptr);
    InvariantChecker outer(FailMode::Record);
    {
        VerifyScope a(&outer);
        EXPECT_EQ(InvariantChecker::current(), &outer);
        InvariantChecker inner(FailMode::Record);
        {
            VerifyScope b(&inner);
            EXPECT_EQ(InvariantChecker::current(), &inner);
        }
        EXPECT_EQ(InvariantChecker::current(), &outer);
    }
    EXPECT_EQ(InvariantChecker::current(), nullptr);
}

TEST(VerifyEnv, GateParsesIdpVerify)
{
    const char *prev = std::getenv("IDP_VERIFY");
    const std::string saved = prev ? prev : "";

    ::unsetenv("IDP_VERIFY");
    EXPECT_EQ(verify::enabledFromEnv(), verify::kCompiledIn);
    ::setenv("IDP_VERIFY", "0", 1);
    EXPECT_FALSE(verify::enabledFromEnv());
    ::setenv("IDP_VERIFY", "off", 1);
    EXPECT_FALSE(verify::enabledFromEnv());
    ::setenv("IDP_VERIFY", "false", 1);
    EXPECT_FALSE(verify::enabledFromEnv());
    ::setenv("IDP_VERIFY", "1", 1);
    EXPECT_EQ(verify::enabledFromEnv(), verify::kCompiledIn);

    if (prev)
        ::setenv("IDP_VERIFY", saved.c_str(), 1);
    else
        ::unsetenv("IDP_VERIFY");
}

// ---------------------------------------------------------------
// End-to-end: full runs with the checker hot must be silent, and the
// hooks must actually observe the run (liveness).
// ---------------------------------------------------------------

core::RunResult
observedRun(const core::SystemConfig &config, InvariantChecker &vc,
            std::uint64_t requests = 1500)
{
    workload::SyntheticParams wp;
    wp.requests = requests;
    wp.meanInterArrivalMs = 1.0;
    const workload::Trace trace = generateSynthetic(wp);
    VerifyScope scope(&vc);
    return core::runTrace(trace, config);
}

TEST(VerifyEndToEnd, CleanSingleDiskRunIsSilent)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out: the run feeds no hooks";
    InvariantChecker vc(FailMode::Record);
    observedRun(core::makeRaid0System(
                    "t", disk::barracudaEs750(), 1),
                vc);
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty())
        << vc.violations().front();
    EXPECT_GT(vc.observations(), 0u);
}

TEST(VerifyEndToEnd, CleanIntraDiskParallelRunIsSilent)
{
    InvariantChecker vc(FailMode::Record);
    observedRun(core::makeRaid0System(
                    "t",
                    disk::makeIntraDiskParallel(
                        disk::barracudaEs750(), 4),
                    1),
                vc);
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty())
        << vc.violations().front();
}

TEST(VerifyEndToEnd, CleanRaidRunsAreSilent)
{
    for (std::uint32_t disks : {4u}) {
        {
            InvariantChecker vc(FailMode::Record);
            observedRun(core::makeRaid0System(
                            "r0", disk::barracudaEs750(), disks),
                        vc);
            vc.finalize();
            EXPECT_TRUE(vc.violations().empty())
                << "raid0: " << vc.violations().front();
        }
        core::SystemConfig config = core::makeRaid0System(
            "r", disk::barracudaEs750(), disks);
        {
            config.array.layout = array::Layout::Raid1;
            InvariantChecker vc(FailMode::Record);
            observedRun(config, vc);
            vc.finalize();
            EXPECT_TRUE(vc.violations().empty())
                << "raid1: " << vc.violations().front();
        }
        {
            // RAID-5 exercises the deferred-RMW re-arm path.
            config.array.layout = array::Layout::Raid5;
            InvariantChecker vc(FailMode::Record);
            observedRun(config, vc);
            vc.finalize();
            EXPECT_TRUE(vc.violations().empty())
                << "raid5: " << vc.violations().front();
        }
    }
}

TEST(VerifyEndToEnd, CleanFaultyCoalescingDriveIsSilent)
{
    // Retries, coalescing, zero-latency access, and write-back
    // destages all complicate the completion path; none may break
    // conservation.
    disk::DriveSpec spec = disk::barracudaEs750();
    spec.mediaRetryRate = 0.05;
    spec.coalesce = true;
    spec.zeroLatencyAccess = true;
    spec.cache.writeBack = true;
    InvariantChecker vc(FailMode::Record);
    observedRun(core::makeRaid0System("faulty", spec, 1), vc);
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty()) << vc.violations().front();
}

TEST(VerifyEndToEnd, ClosedLoopInstallsItsOwnChecker)
{
    // Panic mode by default: a violation would abort the test.
    core::ClosedLoopParams params;
    params.workers = 8;
    params.horizonSeconds = 1.0;
    const auto result = core::runClosedLoop(
        core::makeRaid0System("cl", disk::barracudaEs750(), 1),
        params);
    EXPECT_GT(result.completions, 0u);
}

TEST(VerifyEndToEnd, RunTraceHonorsCallerInstalledChecker)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out: the run feeds no hooks";
    // A caller-provided checker must observe the run (runTrace must
    // not shadow it with its own).
    InvariantChecker vc(FailMode::Record);
    const auto run = observedRun(
        core::makeRaid0System("t", disk::barracudaEs750(), 1), vc,
        200);
    EXPECT_EQ(run.completions, 200u);
    EXPECT_GT(vc.observations(), 200u);
}

TEST(VerifyIdTable, MatchesUnorderedMapUnderRandomChurn)
{
    // Insert / find / erase churn over clustered ids (join ids are
    // sequential; request ids repeat across disks) against the
    // node-based map the checker used to keep.
    verify::IdTable<std::uint32_t> table;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    sim::Rng rng(0x1D7A);
    for (int step = 0; step < 200000; ++step) {
        const std::uint64_t key = rng.uniformInt(std::uint64_t{4096}) +
            (rng.chance(0.1) ? (std::uint64_t{1} << 40) : 0);
        const double op = rng.uniform();
        if (op < 0.45) {
            bool inserted = false;
            std::uint32_t &v = table.findOrInsert(key, inserted);
            EXPECT_EQ(inserted, ref.count(key) == 0);
            v += 1;
            ref[key] += 1;
        } else if (op < 0.9) {
            table.erase(key);
            ref.erase(key);
        } else {
            const std::uint32_t *v = table.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(v == nullptr, it == ref.end()) << key;
            if (v != nullptr) {
                EXPECT_EQ(*v, it->second);
            }
        }
        ASSERT_EQ(table.size(), ref.size());
    }
    for (const auto &[key, value] : ref) {
        const std::uint32_t *v = table.find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_EQ(*v, value);
    }
    // Draining leaves the table empty and still usable.
    for (const auto &[key, value] : ref)
        table.erase(key);
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(7), nullptr);
    table[7] = 3;
    EXPECT_EQ(*table.find(7), 3u);
}

} // namespace
