/**
 * @file
 * Drive-level pricing behind the PDES horizons: the closed-form
 * per-zone transfer pricing against a per-track reference, and the
 * in-flight completion floor (exact from dispatch when nothing can
 * delay the access, a strict lower bound otherwise).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "disk/disk_drive.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using disk::DiskDrive;
using disk::DriveSpec;
using workload::IoRequest;

/** The per-track transfer loop the closed form replaces. */
sim::Tick
referenceTransferTicks(const DiskDrive &drive, geom::Chs cur,
                       std::uint32_t remaining)
{
    const geom::DiskGeometry &g = drive.geometry();
    const sim::Tick head_switch =
        sim::msToTicks(drive.spec().headSwitchMs);
    sim::Tick ticks = 0;
    while (remaining > 0) {
        const std::uint32_t spt = g.sectorsPerTrack(cur.cylinder);
        const std::uint32_t take = std::min(remaining, spt - cur.sector);
        ticks += drive.spindle().sweepTicks(static_cast<double>(take) /
                                            static_cast<double>(spt));
        remaining -= take;
        if (remaining == 0)
            break;
        cur.sector = 0;
        if (++cur.head >= g.surfaces()) {
            cur.head = 0;
            if (cur.cylinder + 1 >= g.cylinders())
                break;
            ++cur.cylinder;
            ticks += drive.seekModel().seekTicks(1, false);
        } else {
            ticks += head_switch;
        }
    }
    return ticks;
}

/** Random start on cylinder @p cyl, random length up to @p max. */
void
expectMatchesReference(const DiskDrive &drive, sim::Rng &rng,
                       std::uint32_t cyl, std::uint32_t max_sectors)
{
    const geom::DiskGeometry &g = drive.geometry();
    geom::Chs start;
    start.cylinder = cyl;
    start.head =
        static_cast<std::uint32_t>(rng.uniformInt(g.surfaces()));
    // Half the cases start on a track boundary (the closed form's
    // entry), the rest mid-track (a partial first track).
    start.sector = rng.chance(0.5)
        ? 0
        : static_cast<std::uint32_t>(
              rng.uniformInt(g.sectorsPerTrack(cyl)));
    const auto sectors =
        1 + static_cast<std::uint32_t>(rng.uniformInt(max_sectors));
    EXPECT_EQ(drive.transferTicks(start, sectors),
              referenceTransferTicks(drive, start, sectors))
        << "chs " << start.cylinder << "/" << start.head << "/"
        << start.sector << " sectors " << sectors;
}

TEST(DiskTransfer, ClosedFormMatchesPerTrackReference)
{
    const std::vector<DriveSpec> specs = {
        disk::enterpriseDrive(2.0, 10000, 2),
        disk::barracudaEs750(),
    };
    sim::Rng rng(0x7AC5);
    for (const DriveSpec &spec : specs) {
        sim::Simulator simul;
        DiskDrive drive(simul, spec, nullptr);
        const geom::DiskGeometry &g = drive.geometry();
        const std::uint32_t track = g.sectorsPerTrack(0);
        const std::uint32_t cyl_sectors = track * g.surfaces();
        for (int i = 0; i < 300; ++i) {
            // Anywhere on the disk, up to a few cylinders long.
            const auto cyl =
                static_cast<std::uint32_t>(rng.uniformInt(g.cylinders()));
            expectMatchesReference(drive, rng, cyl, 4 * cyl_sectors);
        }
        for (const geom::Zone &zone : g.zones()) {
            if (zone.firstCylinder == 0)
                continue;
            // Straddle the boundary into this zone.
            const std::uint32_t back =
                static_cast<std::uint32_t>(rng.uniformInt(3));
            expectMatchesReference(
                drive, rng, zone.firstCylinder - 1 - std::min(
                    back, zone.firstCylinder - 1),
                6 * cyl_sectors);
        }
        // Run off the last cylinder: truncated transfers.
        for (int i = 0; i < 50; ++i) {
            const std::uint32_t back =
                static_cast<std::uint32_t>(rng.uniformInt(3));
            expectMatchesReference(drive, rng,
                                   g.cylinders() - 1 - back,
                                   8 * cyl_sectors);
        }
    }
}

/** One drive tracking completion bounds, and the first completion. */
struct FloorHarness
{
    sim::Simulator simul;
    sim::Tick done = sim::kTickNever;
    DiskDrive drive;

    explicit FloorHarness(const DriveSpec &spec)
        : drive(simul, spec,
                [this](const IoRequest &, sim::Tick t,
                       const disk::ServiceInfo &) { done = t; })
    {
        drive.trackCompletionBounds(true);
    }

    /** Submit a lone read at @p at; return the bound taken right
     *  after dispatch and leave the completion tick in done. */
    sim::Tick
    boundAtDispatch(sim::Tick at, geom::Lba lba, std::uint32_t sectors)
    {
        sim::Tick bound = sim::kTickNever;
        IoRequest r;
        r.id = 1;
        r.lba = lba;
        r.sectors = sectors;
        r.isRead = true;
        r.arrival = at;
        simul.schedule(at, [this, r, &bound] {
            drive.submit(r);
            EXPECT_EQ(drive.inFlight(), 1u);
            bound = drive.completionBoundTicks(simul.now());
        });
        done = sim::kTickNever;
        simul.run();
        return bound;
    }
};

TEST(DiskExactFloor, ChannelPerArmBoundIsTheCompletionTick)
{
    // A conventional drive, and SA(4) with a channel per arm: no
    // access can wait for the channel, so the bound taken at dispatch
    // is the completion tick itself.
    DriveSpec sa4 = disk::makeIntraDiskParallel(disk::barracudaEs750(), 4);
    sa4.maxConcurrentTransfers = 4;
    for (const DriveSpec &spec : {disk::barracudaEs750(), sa4}) {
        FloorHarness h(spec);
        ASSERT_EQ(h.drive.spec().maxConcurrentTransfers,
                  h.drive.spec().dash.armAssemblies);
        const std::uint32_t track =
            h.drive.geometry().sectorsPerTrack(0);
        sim::Rng rng(0xF100);
        sim::Tick at = 0;
        for (int i = 0; i < 20; ++i) {
            // Lone multi-track reads at scattered positions and ticks.
            const geom::Lba lba = rng.uniformInt(
                h.drive.geometry().totalSectors() - 8 * track);
            const auto sectors = static_cast<std::uint32_t>(
                track + rng.uniformInt(6 * track));
            at += sim::msToTicks(50.0) +
                rng.uniformInt(sim::msToTicks(10.0));
            const sim::Tick bound = h.boundAtDispatch(at, lba, sectors);
            ASSERT_NE(h.done, sim::kTickNever);
            EXPECT_EQ(bound, h.done)
                << spec.dash.armAssemblies << " arms, read " << i;
            at = h.done;
        }
    }
}

TEST(DiskExactFloor, SharedChannelKeepsPhaseFloors)
{
    // SA(4) with one data channel: an access may wait for the
    // channel, so the dispatch floor stays a strict lower bound (seek
    // plus a one-sector transfer) rather than the completion tick.
    FloorHarness h(
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 4));
    ASSERT_EQ(h.drive.spec().maxConcurrentTransfers, 1u);
    const std::uint32_t track = h.drive.geometry().sectorsPerTrack(0);
    sim::Rng rng(0x5A4C);
    sim::Tick at = 0;
    for (int i = 0; i < 20; ++i) {
        const geom::Lba lba = rng.uniformInt(
            h.drive.geometry().totalSectors() - 8 * track);
        const auto sectors = static_cast<std::uint32_t>(
            track + rng.uniformInt(6 * track));
        at += sim::msToTicks(50.0);
        const sim::Tick bound = h.boundAtDispatch(at, lba, sectors);
        ASSERT_NE(h.done, sim::kTickNever);
        EXPECT_LT(bound, h.done) << "read " << i;
        at = h.done;
    }
}

} // namespace
