/**
 * @file
 * Multi-disk storage node: layouts, request fan-out, and join logic.
 *
 * Layouts:
 *  - PassThrough: request.device selects the physical disk directly;
 *    models the original traced multi-disk system (MD).
 *  - Concat: every traced device's block space is laid out
 *    sequentially on ONE physical disk — the paper's HC-SD migration
 *    ("HC-SD is populated with all the data from D1, followed by all
 *    the data in D2, ...").
 *  - Raid0: striping over all disks (the paper's synthetic-workload
 *    arrays, Section 7.3).
 *  - Raid1: mirrored pair-sets; reads go to the replica whose drive
 *    prices the access cheaper (positioning oracle + backlog; see
 *    ReplicaPolicy), writes to both.
 *  - Raid5: rotating parity; small writes expand into the classic
 *    read-modify-write (read old data + old parity, then write new
 *    data + new parity, with the writes dependent on the reads).
 */

#ifndef IDP_ARRAY_STORAGE_ARRAY_HH
#define IDP_ARRAY_STORAGE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bus/bus.hh"
#include "disk/disk_drive.hh"
#include "power/governor.hh"
#include "power/power_model.hh"
#include "stats/histogram.hh"
#include "stats/sampler.hh"
#include "workload/request.hh"

namespace idp {
namespace array {

class ArrayBridge;
class RebuildEngine;
struct RebuildParams;

/** Data layout across the array's disks. */
enum class Layout
{
    PassThrough,
    Concat,
    Raid0,
    Raid1,
    Raid5,
};

/**
 * How RAID-1 reads choose between two healthy replicas.
 *
 * Positioning prices each replica with
 * disk::DiskDrive::readPriceTicks — the same seek/rotation oracle the
 * intra-disk scheduler uses to pick an arm, lifted one level up the
 * stack (replica choice as arm choice) — and routes to the cheaper
 * one. Queue is the legacy policy: shallower queue, round-robin on
 * ties. ArrayParams::replica selects one.
 */
enum class ReplicaPolicy
{
    Positioning,
    Queue,
};

/** Array configuration. */
struct ArrayParams
{
    Layout layout = Layout::PassThrough;
    std::uint32_t disks = 1;
    disk::DriveSpec drive;
    /** Stripe unit for Raid0/Raid5, in sectors (128 = 64 KB). */
    std::uint32_t stripeSectors = 128;
    /** RAID-1 read replica selection (see ReplicaPolicy). */
    ReplicaPolicy replica = ReplicaPolicy::Positioning;
    /**
     * Sectors of each *traced* device (PassThrough bounds checking and
     * Concat offsets). Empty = derived from the drive capacity.
     */
    std::vector<std::uint64_t> deviceSectors;

    /**
     * Model the host interconnect: writes pay host->drive data
     * movement before reaching a disk, reads pay drive->host on
     * completion. Off by default (the paper assumes ample channel
     * bandwidth; enabling this checks the assumption).
     */
    bool useBus = false;
    bus::BusParams bus;

    /**
     * Online energy governor (power::Governor): per-drive RPM and
     * actuator-parking control under a latency SLO. Disabled by
     * default. Under PDES every control tick runs as a serial step,
     * so governed runs stay byte-identical to the serial loop.
     */
    power::GovernorParams governor;
};

/** Completion callback for a *logical* request. */
using LogicalCompletionFn =
    std::function<void(const workload::IoRequest &, sim::Tick)>;

/** Array-level statistics. */
struct ArrayStats
{
    std::uint64_t logicalArrivals = 0;
    std::uint64_t logicalCompletions = 0;
    /**
     * Sub-requests that completed on a member that had already been
     * taken offline by failDisk(): the completion is dropped with
     * accounting — it still resolves its join (conservation) but
     * feeds no service statistics, and the join it belonged to is
     * tainted.
     */
    std::uint64_t droppedSubCompletions = 0;
    /** Logical requests whose join saw >= 1 dropped sub-completion;
     *  they complete (and count) but contribute no response sample. */
    std::uint64_t taintedJoins = 0;
    stats::SampleSet responseMs{1u << 20};
    stats::Histogram responseHist = stats::makeResponseHistogram();
    stats::Histogram rotHist = stats::makeRotLatencyHistogram();
    /** Rotational wait per healthy media sub-completion, ms; runs
     *  report its mean (RunResult::meanRotMs). */
    stats::RunningMean rotMs;
};

/**
 * A storage node made of identical disks under one layout.
 */
class StorageArray
{
  public:
    /**
     * @p bridge is null for serial runs (everything on @p simul). A
     * PDES run passes its engine: member drives are then built on the
     * bridge's per-drive calendars, the bus on its array-phase
     * calendar, and @p simul is the coordinator calendar the workload
     * feed schedules on.
     */
    StorageArray(sim::Simulator &simul, const ArrayParams &params,
                 LogicalCompletionFn on_complete = nullptr,
                 ArrayBridge *bridge = nullptr);
    ~StorageArray(); // = default; RebuildEngine is incomplete here

    /** Submit a logical request at the current simulated time. */
    void submit(const workload::IoRequest &req);

    /** Physical disk count. */
    std::uint32_t diskCount() const
    {
        return static_cast<std::uint32_t>(disks_.size());
    }

    /** Access one physical disk (stats, tests). */
    const disk::DiskDrive &diskAt(std::uint32_t i) const;

    /** True when every disk is idle and no join is outstanding. */
    bool idle() const;

    const ArrayStats &stats() const { return stats_; }
    const ArrayParams &params() const { return params_; }

    /**
     * End of ingestion. Nothing is left to do: quantiles are selected
     * when read (SampleSet::quantile), so no sort runs at the end of a
     * run. Kept so callers that close a run explicitly still build.
     */
    void sealStats() {}

    /**
     * Pre-reserve the response sample buffer to its full reservoir
     * capacity (8 MB). Long-lived serving loops pay this once up front
     * so completion-path ingestion never reallocates in steady state;
     * batch sweeps skip it (many concurrent short runs would multiply
     * the fixed cost).
     */
    void reserveStatsCapacity()
    {
        stats_.responseMs.reserve(~std::size_t(0));
    }

    /** Logical capacity exposed by the layout, in sectors. */
    std::uint64_t logicalSectors() const { return logicalSectors_; }

    /** The host interconnect, when modeled (null otherwise). */
    const bus::Bus *hostBus() const { return bus_.get(); }

    /**
     * Take disk @p idx offline (degraded-mode operation). Only the
     * redundant layouts survive this: Raid1 serves from the mirror,
     * Raid5 reconstructs reads from the surviving row members and
     * maintains parity-only writes. Fatal on layouts with no
     * redundancy, or when redundancy is already exhausted.
     */
    void failDisk(std::uint32_t idx);

    /** True if disk @p idx is offline. */
    bool diskFailed(std::uint32_t idx) const;

    /**
     * Start reconstructing failed disk @p idx onto its spare (the
     * member's drive, reused in place). RAID-1 streams a mirror copy;
     * RAID-5 reads every surviving row member and XORs onto the
     * spare. The engine runs as background traffic under
     * @p params' rate limit and foreground-yield knobs; when the last
     * chunk lands the member rejoins the array. Under PDES call it
     * through scheduleStartRebuild so the start tick is
     * barrier-synchronized. Requires diskFailed(idx) and no rebuild
     * already running.
     */
    void startRebuild(std::uint32_t idx, const RebuildParams &params);

    /**
     * Schedule failDisk(idx) at tick @p at on the array's calendar
     * and — when a PDES bridge is installed — register the tick as a
     * horizon barrier so the membership flip executes as a
     * serial synchronization point (no conservative window spans it).
     */
    void scheduleFailDisk(std::uint32_t idx, sim::Tick at);

    /** Barrier-registered counterpart of startRebuild; see
     *  scheduleFailDisk. */
    void scheduleStartRebuild(std::uint32_t idx, sim::Tick at,
                              const RebuildParams &params);

    /** Forwarders the PDES engine prices its horizons with;
     *  see DiskDrive::completionBoundTicks / minServiceFloorTicks. */
    sim::Tick driveCompletionBound(std::uint32_t idx,
                                   sim::Tick round_start);
    sim::Tick driveMinServiceFloor(std::uint32_t idx) const;

    /** The running (or finished) rebuild engine; null before
     *  startRebuild. Exposes progress telemetry. */
    const RebuildEngine *rebuild() const { return rebuild_.get(); }

    /** The energy governor, when enabled (null otherwise). */
    const power::Governor *governor() const { return governor_.get(); }

    /**
     * Deconfigure one arm assembly of member @p disk_idx (Section 8
     * graceful degradation inside a member drive). Forwards to
     * DiskDrive::failArm.
     */
    void failMemberArm(std::uint32_t disk_idx, std::uint32_t arm);

    /**
     * Close every disk's mode accounting and integrate power over the
     * run. Call once, after the simulation completes.
     */
    power::PowerBreakdown finishPower();

    /** Aggregate mode times over all disks (must follow finishPower
     *  pattern: uses snapshots, safe to call anytime). */
    stats::ModeTimes modeTimesSnapshot() const;

    // -- PDES engine entry points (no-ops without a bridge) ---------

    /** Deliver an inbox sub-request to drive @p disk_idx. Runs on the
     *  drive's worker with its calendar advanced to the delivery
     *  tick. */
    void injectSub(std::uint32_t disk_idx,
                   const workload::IoRequest &sub);

    /** Replay one drive completion on the array-phase calendar, in
     *  merge order. */
    void replaySubComplete(std::uint32_t disk_idx,
                           const workload::IoRequest &sub,
                           sim::Tick done,
                           const disk::ServiceInfo &info);

  private:
    friend class RebuildEngine;

    /** Sub-requests of one fan-out, each with its member disk. */
    using SubList =
        std::vector<std::pair<std::uint32_t, workload::IoRequest>>;

    struct Join
    {
        workload::IoRequest logical;
        std::uint32_t remaining = 0;
        /** Invariant-checker token from onArraySplit. */
        std::uint32_t verifyToken = 0;
        /** A member failed under this join: >= 1 sub-completion was
         *  dropped, so the response sample would be fiction. */
        bool tainted = false;
        /** Raid5 RMW: writes to issue once the reads complete. */
        SubList deferred;
    };

    sim::Simulator &sim_;
    ArrayParams params_;
    LogicalCompletionFn onComplete_;
    ArrayBridge *bridge_ = nullptr;
    std::vector<std::unique_ptr<disk::DiskDrive>> disks_;
    std::unique_ptr<bus::Bus> bus_;
    std::vector<std::uint64_t> deviceOffsets_; // Concat layout
    std::uint64_t diskSectors_ = 0;
    std::uint64_t logicalSectors_ = 0;
    std::uint64_t nextJoinId_ = 1;
    std::unordered_map<std::uint64_t, Join> joins_;
    /** Fan-out buffer reused across logical requests. A split moves it
     *  out and issueJoin moves it back, so a nested fan-out (from an
     *  inline completion) finds it empty and never shares it. */
    SubList splitScratch_;
    std::uint64_t rrRead_ = 0; // Raid1 tie-break
    std::vector<bool> failed_;
    std::unique_ptr<RebuildEngine> rebuild_;
    std::unique_ptr<power::Governor> governor_;
    ArrayStats stats_;
    /** Registry handles (null when no registry is installed). */
    telemetry::Counter *ctrLogical_ = nullptr;
    telemetry::Counter *ctrSubs_ = nullptr;
    telemetry::Counter *ctrSubClamped_ = nullptr;
    telemetry::Counter *ctrDroppedSubs_ = nullptr;
    telemetry::Counter *ctrReplicaPriced_ = nullptr;
    telemetry::Counter *ctrReplicaTies_ = nullptr;

    /** Clock of whichever phase is executing (sim_ when serial). */
    sim::Tick tnow() const;
    void submitSub(std::uint32_t disk_idx, workload::IoRequest sub,
                   std::uint64_t join_id, std::uint32_t verify_token);
    /** Book a staged write's bus movement and queue its delivery. */
    void replayBusWrite(std::uint32_t disk_idx,
                        const workload::IoRequest &sub);
    void onSubComplete(std::uint32_t disk_idx,
                       const workload::IoRequest &sub, sim::Tick done,
                       const disk::ServiceInfo &info);
    void finishSub(std::uint64_t join_id, sim::Tick done,
                   bool tainted);
    /** RAID-1 read routing between the healthy replicas @p a and
     *  @p b (see ReplicaPolicy). */
    std::uint32_t pickReplica(std::uint32_t a, std::uint32_t b,
                              const workload::IoRequest &sub);
    /** Rebuild finished: bring the reconstructed member back. */
    void completeRebuild(std::uint32_t idx);
    /** Open @p join over @p subs, submit them, and keep their
     *  buffer as the next split's scratch. */
    void issueJoin(std::uint64_t join_id, Join &join, SubList subs);
    void fanOutRaid0(const workload::IoRequest &req,
                     std::uint64_t join_id, Join &join);
    void fanOutRaid5(const workload::IoRequest &req,
                     std::uint64_t join_id, Join &join);
};

} // namespace array
} // namespace idp

#endif // IDP_ARRAY_STORAGE_ARRAY_HH
