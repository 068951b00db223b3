/**
 * @file
 * Tests for the runtime invariant checker itself: seeded violations
 * must be caught (Record mode), clean end-to-end runs must stay
 * silent with the checker hot, and the install/override machinery
 * (VerifyScope nesting, environment gate) must behave.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/closed_loop.hh"
#include "core/experiment.hh"
#include "verify/verify.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;
using verify::FailMode;
using verify::InvariantChecker;
using verify::kNoToken;
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
    vc.diskComplete(0, 7, kNoToken, 1000, 10);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("more times"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesDoubleCompletion)
{
    InvariantChecker vc(FailMode::Record);
    const std::uint32_t t = vc.diskSubmit(0, 7, 0, 0);
    vc.diskComplete(0, 7, t, 1000, 10);
    EXPECT_TRUE(vc.violations().empty());
    vc.diskComplete(0, 7, t, 2000, 10);
    ASSERT_EQ(vc.violations().size(), 1u);
}

TEST(VerifyChecker, CatchesCompletionFasterThanMinimumService)
{
    InvariantChecker vc(FailMode::Record);
    const std::uint32_t t = vc.diskSubmit(0, 7, 100, 100);
    vc.diskComplete(0, 7, t, 150, /*min_service=*/100);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("minimum service"),
              std::string::npos);
}

TEST(VerifyChecker, ChecksEachCopyAgainstItsOwnSubmit)
{
    // Two copies of id 7 in flight, and either may finish first: each
    // completion is checked against its own copy's submit.
    InvariantChecker vc(FailMode::Record);
    const std::uint32_t a = vc.diskSubmit(0, 7, 100, 100);
    const std::uint32_t b = vc.diskSubmit(0, 7, 200, 200);
    vc.diskComplete(0, 7, b, 300, /*min_service=*/100);
    vc.diskComplete(0, 7, a, 300, /*min_service=*/100);
    EXPECT_TRUE(vc.violations().empty()) << vc.violations().front();

    // Earlier than its own submit + minimum service is non-causal.
    const std::uint32_t c = vc.diskSubmit(0, 7, 1000, 1000);
    const std::uint32_t d = vc.diskSubmit(0, 7, 1100, 1100);
    vc.diskComplete(0, 7, c, 1150, /*min_service=*/200);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("minimum service"),
              std::string::npos);
    EXPECT_NE(vc.violations()[0].find("(1200)"), std::string::npos)
        << vc.violations()[0];

    // The later copy completes after the earlier copy's submit +
    // minimum service but before its own: a floor at the earliest
    // outstanding submit would pass it; its own copy's floor does not.
    vc.diskComplete(0, 7, d, 1250, /*min_service=*/200);
    ASSERT_EQ(vc.violations().size(), 2u);
    EXPECT_NE(vc.violations()[1].find("(1300)"), std::string::npos)
        << vc.violations()[1];
    vc.finalize();
    EXPECT_EQ(vc.violations().size(), 2u);
}

TEST(VerifyChecker, CatchesStaleTokenWhileAnotherCopyIsInFlight)
{
    // One copy completing twice while a second copy of the same id is
    // in flight: a per-id count would accept it, the token does not.
    InvariantChecker vc(FailMode::Record);
    const std::uint32_t a = vc.diskSubmit(0, 7, 0, 0);
    const std::uint32_t b = vc.diskSubmit(0, 7, 0, 0);
    vc.diskComplete(0, 7, a, 100, 10);
    EXPECT_TRUE(vc.violations().empty());
    vc.diskComplete(0, 7, a, 200, 10);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("more times"), std::string::npos);
    vc.diskComplete(0, 7, b, 300, 10);
    vc.finalize();
    EXPECT_EQ(vc.violations().size(), 1u);
}

TEST(VerifyChecker, CatchesRecycledSlotWithOldGeneration)
{
    // The freed slot is reused by a new copy of the same id: the old
    // token names the right slot and id but a retired generation.
    InvariantChecker vc(FailMode::Record);
    const std::uint32_t old_token = vc.diskSubmit(0, 7, 0, 0);
    vc.diskComplete(0, 7, old_token, 100, 10);
    const std::uint32_t new_token = vc.diskSubmit(0, 7, 100, 100);
    EXPECT_NE(new_token, old_token);
    vc.diskComplete(0, 7, old_token, 200, 10);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("more times"), std::string::npos);
    // The live copy still completes exactly once.
    vc.diskComplete(0, 7, new_token, 300, 10);
    vc.finalize();
    EXPECT_EQ(vc.violations().size(), 1u);
}

TEST(VerifyChecker, CatchesAnotherDisksToken)
{
    InvariantChecker vc(FailMode::Record);
    const std::uint32_t t0 = vc.diskSubmit(0, 7, 0, 0);
    // Disk 1 has nothing in flight: no slot matches.
    vc.diskComplete(1, 7, t0, 100, 10);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("disk 1: request 7 completed more"),
              std::string::npos)
        << vc.violations()[0];
    // Disk 1's same slot holds another request: the id differs.
    const std::uint32_t t1 = vc.diskSubmit(1, 8, 100, 100);
    EXPECT_EQ(t1, t0);
    vc.diskComplete(1, 7, t0, 200, 10);
    ASSERT_EQ(vc.violations().size(), 2u);
    vc.diskComplete(0, 7, t0, 300, 10);
    vc.diskComplete(1, 8, t1, 300, 10);
    vc.finalize();
    EXPECT_EQ(vc.violations().size(), 2u);
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
    // a disk twice (read old, then write new): one token per copy.
    InvariantChecker vc(FailMode::Record);
    const std::uint32_t rd = vc.diskSubmit(0, 7, 0, 0);
    vc.diskComplete(0, 7, rd, 1000, 10);
    const std::uint32_t wr = vc.diskSubmit(0, 7, 1000, 1000);
    vc.diskComplete(0, 7, wr, 2000, 10);
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
    const std::uint32_t t1 = vc.arraySplit(1, 0, 0);
    vc.arraySub(1, t1);
    vc.arraySubFinish(1, t1, 100);
    vc.arrayJoin(1, t1, 0, 100);
    EXPECT_TRUE(vc.violations().empty());

    vc.arrayJoin(1, t1, 0, 100); // join already retired
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("join 1 completed twice"),
              std::string::npos)
        << vc.violations()[0];

    const std::uint32_t t2 = vc.arraySplit(2, 0, 0);
    vc.arraySub(2, t2);
    vc.arrayJoin(2, t2, 0, 50); // one sub still outstanding
    EXPECT_EQ(vc.violations().size(), 2u);
    EXPECT_NE(vc.violations()[1].find("outstanding"),
              std::string::npos);

    vc.arraySubFinish(3, kNoToken, 10); // no such join
    EXPECT_EQ(vc.violations().size(), 3u);
}

TEST(VerifyChecker, CatchesReusedJoinIdAndStaleJoinTokens)
{
    InvariantChecker vc(FailMode::Record);
    const std::uint32_t t5 = vc.arraySplit(5, 0, 0);
    vc.arraySplit(5, 0, 0); // id 5 is still in flight
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("join id 5 reused"),
              std::string::npos);

    // A later join recycles join 5's slot once it retires; join 5's
    // token is stale for it, and so is a token naming another id.
    vc.arrayJoin(5, t5, 0, 10);
    vc.arraySub(5, t5); // retired, its slot still free
    ASSERT_EQ(vc.violations().size(), 2u);
    EXPECT_NE(vc.violations()[1].find("for already-joined join 5"),
              std::string::npos)
        << vc.violations()[1];
    const std::uint32_t t6 = vc.arraySplit(6, 10, 10);
    EXPECT_EQ(t6 & 0xffffffu, t5 & 0xffffffu); // same slot, LIFO
    vc.arraySub(5, t5);
    ASSERT_EQ(vc.violations().size(), 3u);
    EXPECT_NE(vc.violations()[2].find("for unknown join 5"),
              std::string::npos)
        << vc.violations()[2];
    vc.arraySub(5, t6);
    EXPECT_EQ(vc.violations().size(), 4u);
    vc.arraySub(6, t6);
    vc.arraySubFinish(6, t6, 20);
    vc.arrayJoin(6, t6, 10, 20);
    vc.finalize();
    EXPECT_EQ(vc.violations().size(), 4u) << vc.violations().back();

    // With nothing in flight, ids may start over (a new run).
    const std::uint32_t again = vc.arraySplit(1, 30, 30);
    vc.arrayJoin(1, again, 30, 40);
    EXPECT_EQ(vc.violations().size(), 4u);
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
            vc.diskComplete(0, 7, kNoToken, 1000, 10);
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

TEST(VerifyEndToEnd, BusWriteBackSplitWriteIsSilent)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out: the run feeds no hooks";
    // Over a bus, a write spanning four 8-sector stripe units reaches
    // each of the two members twice, at different ticks; the
    // write-back cache completes the first copy before the second
    // copy's submit + controller overhead. That is causal.
    disk::DriveSpec d = disk::barracudaEs750();
    d.cache.writeBack = true;
    core::SystemConfig config = core::makeRaid0System("r0", d, 2, 8);
    config.array.useBus = true;
    workload::IoRequest req;
    req.sectors = 32;
    req.isRead = false;

    InvariantChecker vc(FailMode::Record);
    core::RunResult run;
    {
        VerifyScope scope(&vc);
        run = core::runTrace({req}, config);
    }
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty()) << vc.violations().front();
    EXPECT_EQ(run.completions, 1u);
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

} // namespace
