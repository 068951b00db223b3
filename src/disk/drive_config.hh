/**
 * @file
 * Drive specifications and the DASH intra-disk-parallelism taxonomy.
 *
 * The paper expresses a parallel-disk design point as the 4-tuple
 * Dk Al Sm Hn — parallelism in Disk stacks, Arm assemblies, Surfaces,
 * and Heads per arm. A conventional drive is D1 A1 S1 H1; the paper's
 * evaluated HC-SD-SA(n) design is D1 An S1 H1 with two service
 * constraints retained from conventional drives: at most one arm
 * assembly in motion at a time and at most one head transferring over
 * the channel. The technical-report extensions relax those two limits
 * (multi-motion and multi-channel), which DriveSpec exposes as
 * maxConcurrentSeeks / maxConcurrentTransfers.
 */

#ifndef IDP_DISK_DRIVE_CONFIG_HH
#define IDP_DISK_DRIVE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/disk_cache.hh"
#include "geom/geometry.hh"
#include "mech/seek_model.hh"
#include "power/power_model.hh"
#include "sched/scheduler.hh"
#include "sim/types.hh"

namespace idp {
namespace disk {

/** A point in the DASH taxonomy: Dk Al Sm Hn. */
struct DashConfig
{
    std::uint32_t diskStacks = 1;    ///< D: spindle/platter stacks
    std::uint32_t armAssemblies = 1; ///< A: independent actuators
    std::uint32_t surfaces = 1;      ///< S: surfaces accessed at once
    std::uint32_t headsPerArm = 1;   ///< H: heads per arm per surface

    /** Render as e.g. "D1A4S1H1". */
    std::string str() const;

    /** Maximum independent data paths this configuration offers. */
    std::uint32_t dataPaths() const;

    /** True for a conventional D1A1S1H1 drive. */
    bool conventional() const;
};

/** Complete specification of one disk drive model. */
struct DriveSpec
{
    std::string name = "drive";
    DashConfig dash;

    geom::GeometryParams geometry;
    mech::SeekParams seek; ///< seek.cylinders is filled when built
    std::uint32_t rpm = 7200;
    cache::CacheParams cache;
    power::PowerParams power; ///< actuators synced with dash on build

    /** Arm assemblies allowed to be in motion simultaneously. */
    std::uint32_t maxConcurrentSeeks = 1;
    /** Heads allowed to stream over the channel simultaneously. */
    std::uint32_t maxConcurrentTransfers = 1;

    /** Scheduling policy and pending-window bound. */
    sched::SchedulerParams sched;
    std::uint32_t schedWindow = 48;
    /**
     * Dispatch through the incrementally maintained cylinder index
     * with admissible lower-bound pruning (selects the byte-identical
     * pair the exhaustive scan would, in O(priced) oracle calls
     * instead of O(window x arms)). False forces the exhaustive
     * scan, which serves as the oracle the pruned path is tested
     * against.
     */
    bool schedPrune = true;

    /**
     * Explicit chassis azimuths (revolutions) for each arm assembly;
     * empty = evenly spaced (arm k at k/n). Used by the placement
     * ablation: clustering all arms at one azimuth removes the
     * rotational-latency benefit while keeping the seek benefit.
     */
    std::vector<double> armAzimuths;

    /** Head/track switch and per-request controller overheads. */
    double headSwitchMs = 0.4;
    double controllerOverheadMs = 0.15;
    /** Interface rate for cache-hit service, MB/s. */
    double busMBps = 300.0;

    /**
     * Limit-study knobs (Figure 4): multiply every computed seek /
     * rotational-latency period by these factors. 1.0 = physical.
     */
    double seekScale = 1.0;
    double rotScale = 1.0;

    /**
     * Zero-latency ("read on arrival") access: when a single-track
     * request's run is already passing under the head, start
     * transferring immediately and fill the buffer out of order,
     * wrapping once around the track. Pays off for track-sized
     * requests (a full-track read never waits on rotation); a no-op
     * for small random requests. Off by default.
     */
    bool zeroLatencyAccess = false;

    /**
     * Coalesce queued requests that are exactly contiguous with the
     * one being dispatched (same direction, lba adjacency) into a
     * single media access; every coalesced request completes when the
     * combined transfer ends. Captures back-to-back sequential
     * streams that arrive as separate commands. Off by default.
     */
    bool coalesce = false;
    /** Maximum requests folded into one access (incl. the head). */
    std::uint32_t coalesceLimit = 8;

    /**
     * Media fault injection: probability that one media access fails
     * its transfer and must retry after a full revolution (ECC
     * re-read). After maxRetries consecutive failures the access is
     * reported to the host as a hard error (ServiceInfo::failed).
     */
    double mediaRetryRate = 0.0;
    std::uint32_t maxRetries = 3;
    /** Seed for the drive's internal fault-injection stream. */
    std::uint64_t faultSeed = 0x51D0;

    /**
     * Conventional power-management knob (the DRPM/MAID family the
     * paper's Section 5 contrasts against): spin the spindle down
     * after this much idle time (0 = never). A request arriving at a
     * spun-down drive waits out a full spin-up before any service —
     * the latency cliff that makes such knobs unattractive for the
     * paper's always-busy server workloads.
     */
    double spinDownAfterMs = 0.0;
    double spinUpMs = 6000.0;
    /**
     * Duration of the spin-down transition itself (0 = the historical
     * instantaneous stop). While the transition is in flight the drive
     * serves nothing; a request arriving mid-transition waits out the
     * remaining transition AND a full spin-up — it is never priced at
     * the old speed or served half-stopped.
     */
    double spinDownMs = 0.0;

    /**
     * Ramp duration of a runtime RPM change (DiskDrive::requestRpm /
     * the energy governor). The drive first drains its in-flight
     * requests (new dispatches are gated), then serves nothing for
     * this long while the spindle settles at the new speed. The ramp
     * is billed at the higher of the two speeds (deceleration still
     * dissipates; acceleration draws more).
     */
    double rpmShiftMs = 400.0;

    /** Sync dependent fields (power.actuators, power.rpm, ...). */
    void normalize();
};

/** The paper's HC-SD baseline: Seagate Barracuda ES-like, 750 GB. */
DriveSpec barracudaEs750();

/**
 * A 10k/7.2k RPM enterprise drive of the given capacity, for modeling
 * the original MD array members (Table 2 configurations).
 */
DriveSpec enterpriseDrive(double capacity_gb, std::uint32_t rpm,
                          std::uint32_t platters);

/**
 * Derive the HC-SD-SA(n) intra-disk parallel drive from @p base:
 * n arm assemblies spaced evenly around the spindle, single motion,
 * single channel, SPTF scheduling.
 */
DriveSpec makeIntraDiskParallel(DriveSpec base, std::uint32_t actuators);

/** Derive a reduced-RPM variant (Figures 6 and 7). */
DriveSpec withRpm(DriveSpec base, std::uint32_t rpm);

/** Chassis azimuth (revolutions) of arm @p k of @p n, evenly spaced. */
double armAzimuth(std::uint32_t k, std::uint32_t n);

} // namespace disk
} // namespace idp

#endif // IDP_DISK_DRIVE_CONFIG_HH
