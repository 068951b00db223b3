/**
 * @file
 * Broad parameterized sweeps: every (layout x drive kind) drains and
 * accounts; cost and thermal models behave monotonically across the
 * whole design range; DASH labels render for the full grid.
 */

#include <gtest/gtest.h>

#include "array/storage_array.hh"
#include "cost/cost_model.hh"
#include "power/thermal.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using array::ArrayParams;
using array::Layout;
using array::StorageArray;

struct SweepCase
{
    Layout layout;
    std::uint32_t disks;
    std::uint32_t actuators;
    bool bus;
    bool write_back;
    // Fills what would otherwise be two bytes of tail padding. gtest
    // prints the whole object into each case's name, and uninitialised
    // padding made those names change from run to run; the values below
    // keep every case under the name the suite has listed it by.
    std::uint16_t nameTag = 0;
};

class LayoutDriveSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(LayoutDriveSweep, DrainsAndConserves)
{
    const SweepCase c = GetParam();
    sim::Simulator simul;
    ArrayParams params;
    params.layout = c.layout;
    params.disks = c.disks;
    params.drive = disk::enterpriseDrive(1.0, 10000, 2);
    if (c.actuators > 1)
        params.drive =
            disk::makeIntraDiskParallel(params.drive, c.actuators);
    params.drive.cache.writeBack = c.write_back;
    params.useBus = c.bus;
    params.stripeSectors = 32;

    std::uint64_t completions = 0;
    StorageArray arr(simul, params,
                     [&completions](const workload::IoRequest &,
                                    sim::Tick) { ++completions; });

    sim::Rng rng(7000 + c.disks * 10 + c.actuators);
    const std::uint64_t space = arr.logicalSectors() - 128;
    const std::uint64_t n = 400;
    for (std::uint64_t i = 0; i < n; ++i) {
        workload::IoRequest req;
        req.id = i;
        req.arrival = rng.uniformInt(800ULL * sim::kTicksPerMs);
        req.device = c.layout == Layout::PassThrough
            ? static_cast<std::uint32_t>(rng.uniformInt(
                  static_cast<std::uint64_t>(c.disks)))
            : 0;
        req.lba = rng.uniformInt(space);
        req.sectors = 1 + static_cast<std::uint32_t>(
                              rng.uniformInt(
                                  static_cast<std::uint64_t>(63)));
        req.isRead = rng.chance(0.6);
        simul.schedule(req.arrival, [&arr, req] { arr.submit(req); });
    }
    const sim::Tick end = simul.run();

    EXPECT_EQ(completions, n);
    EXPECT_TRUE(arr.idle());

    // Energy/time conservation across the whole array.
    const stats::ModeTimes times = arr.modeTimesSnapshot();
    sim::Tick sum = 0;
    for (auto w : times.wall)
        sum += w;
    EXPECT_EQ(sum, times.total);
    EXPECT_EQ(times.total, static_cast<sim::Tick>(c.disks) * end);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LayoutDriveSweep,
    ::testing::Values(
        SweepCase{Layout::PassThrough, 3, 1, false, false},
        SweepCase{Layout::PassThrough, 3, 2, false, true, 0xB0A0},
        SweepCase{Layout::Concat, 1, 1, false, false, 0xFFFF},
        SweepCase{Layout::Concat, 1, 4, true, false},
        SweepCase{Layout::Raid0, 4, 1, false, false},
        SweepCase{Layout::Raid0, 4, 2, true, false},
        SweepCase{Layout::Raid0, 8, 4, false, true, 0xB0A0},
        SweepCase{Layout::Raid1, 4, 1, false, false, 0xB0A0},
        SweepCase{Layout::Raid1, 2, 2, true, false, 0xFFFF},
        SweepCase{Layout::Raid5, 3, 1, false, false},
        SweepCase{Layout::Raid5, 5, 2, false, false},
        SweepCase{Layout::Raid5, 4, 4, true, true}));

TEST(CostSweep, MonotoneInActuators)
{
    double prev = 0.0;
    for (std::uint32_t n = 1; n <= 8; ++n) {
        const double mid = cost::driveCost(n).mid();
        EXPECT_GT(mid, prev);
        prev = mid;
    }
}

TEST(CostSweep, PerActuatorIncrementRoughlyConstant)
{
    // Heads dominate, so each extra actuator adds a near-constant
    // increment (paper Table 9a structure).
    const double d12 = cost::driveCost(2).mid() - cost::driveCost(1).mid();
    const double d34 = cost::driveCost(4).mid() - cost::driveCost(3).mid();
    EXPECT_NEAR(d12, d34, d12 * 0.05);
}

TEST(ThermalSweep, FeasibleRpmMonotoneInEnvelope)
{
    power::PowerParams drive;
    std::uint32_t prev = 0;
    for (double max_c : {50.0, 55.0, 60.0, 65.0, 70.0}) {
        power::ThermalParams env;
        env.maxOperatingC = max_c;
        const power::ThermalModel m(env);
        const std::uint32_t rpm = m.maxFeasibleRpm(drive);
        EXPECT_GE(rpm, prev);
        prev = rpm;
    }
    EXPECT_GT(prev, 8117u); // 70 C envelope beats the default's limit
}

TEST(ThermalSweep, SmallerPlattersSpinFaster)
{
    const power::ThermalModel m{power::ThermalParams{}};
    std::uint32_t prev = 0;
    for (double d : {3.7, 3.3, 3.0, 2.6}) {
        power::PowerParams p;
        p.platterDiameterIn = d;
        const std::uint32_t rpm = m.maxFeasibleRpm(p);
        EXPECT_GT(rpm, prev);
        prev = rpm;
    }
    EXPECT_GT(prev, 15000u); // 2.6 in platters reach 15k class
}

TEST(DashSweep, LabelsRenderAcrossGrid)
{
    for (std::uint32_t a : {1u, 2u, 4u}) {
        for (std::uint32_t s : {1u, 2u}) {
            for (std::uint32_t h : {1u, 2u, 4u}) {
                disk::DashConfig dash;
                dash.armAssemblies = a;
                dash.surfaces = s;
                dash.headsPerArm = h;
                const std::string label = dash.str();
                EXPECT_EQ(label, "D1A" + std::to_string(a) + "S" +
                                     std::to_string(s) + "H" +
                                     std::to_string(h));
                EXPECT_EQ(dash.dataPaths(), a * s * h);
            }
        }
    }
}

TEST(ReducedRpmSweep, PowerMonotoneInRpm)
{
    double prev = 1e18;
    for (std::uint32_t rpm : {7200u, 6200u, 5200u, 4200u}) {
        power::PowerParams p;
        p.rpm = rpm;
        const power::PowerModel m(p);
        EXPECT_LT(m.idleW(), prev);
        prev = m.idleW();
    }
}

} // namespace
